#pragma once
/// \file placement.hpp
/// \brief Fleet placement: replicas across RECS chassis under slot and
/// chassis power budgets, with a per-slot power meter.
///
/// The fleet layer (serve/fleet.hpp) scales replicas of a serving process
/// up and down; each replica must live in a real chassis slot, and the
/// chassis enforces the Sec. II-A budgets (RECS|Box: 130 W per COM Express
/// slot, 500 W per chassis). FleetPlacement packs replicas first-fit into
/// as many chassis as needed — Chassis::install is the only admission path,
/// so a placement that would exceed a budget is impossible by construction
/// rather than checked after the fact — and meters per-slot average power
/// so the soak can verify the honesty claim: metered power <= the slot
/// budget the chassis admitted the module under.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "platform/baseboard.hpp"

namespace vedliot::platform {

/// One placed replica: a module in a chassis slot.
struct Placement {
  std::string replica;      ///< "replica0", assigned by the fleet
  std::size_t chassis = 0;  ///< index into chassis()
  std::string slot;         ///< slot name within that chassis
  std::string module;       ///< installed module name
};

class FleetPlacement {
 public:
  struct Config {
    /// Baseboard every chassis in the fleet uses.
    BaseboardSpec board;
    /// Module names cycled over placements (["COMe-XavierAGX",
    /// "COMe-D1577"] alternates accelerator and CPU modules).
    std::vector<std::string> modules;
  };

  explicit FleetPlacement(Config config);

  /// Place one replica: first-fit into the lowest-index chassis slot whose
  /// form factor and power budget admit the next module, opening a new
  /// chassis when every existing one is full. Returns the placement.
  Placement place(const std::string& replica);

  /// Release a replica's slot (hot-removal); throws NotFound for unknown
  /// replicas. The chassis stays open (autoscaling reuses the slot).
  void release(const std::string& replica);

  const std::vector<Placement>& placements() const { return placements_; }
  const Placement& placement_of(const std::string& replica) const;
  const Chassis& chassis(std::size_t i) const;

  /// Record \p joules consumed by \p replica's module over \p seconds of
  /// busy time (the fleet meters every executed batch).
  void meter(const std::string& replica, double joules, double seconds);

  struct SlotPower {
    std::string replica;
    std::string slot;
    double budget_w = 0;       ///< slot budget the module was admitted under
    double module_cap_w = 0;   ///< module's own envelope
    double joules = 0;         ///< metered energy
    double busy_s = 0;         ///< metered busy time
    /// Average draw while busy (0 when never busy).
    double avg_power_w() const { return busy_s > 0 ? joules / busy_s : 0; }
  };

  /// Per-replica power accounting, in replica order.
  std::vector<SlotPower> power_report() const;

 private:
  Config cfg_;
  std::vector<std::unique_ptr<Chassis>> chassis_;
  std::vector<Placement> placements_;           ///< live placements
  std::map<std::string, std::pair<double, double>> metered_;  ///< joules, busy_s
  std::size_t next_module_ = 0;
};

}  // namespace vedliot::platform
