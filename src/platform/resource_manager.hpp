#pragma once
/// \file resource_manager.hpp
/// \brief System-level resource management (Sec. II-A): place DL workloads
/// on the chassis' heterogeneous modules, and reassign seamlessly when a
/// module is exchanged or fails ("easy exchange of computing resources and
/// seamless switching between heterogeneous components").

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "hw/perf_model.hpp"
#include "platform/baseboard.hpp"

namespace vedliot::platform {

/// A recurring inference workload to be placed on some module.
struct Workload {
  std::string name;
  double ops = 0;             ///< per inference
  double traffic_bytes = 0;   ///< per inference
  double weight_bytes = 0;
  DType dtype = DType::kINT8;
  double rate_hz = 1.0;       ///< required inference rate
  double latency_budget_s = 0.1;

  /// Derive the static numbers from a graph at a precision.
  static Workload from_graph(const std::string& name, const Graph& g, DType dt, double rate_hz,
                             double latency_budget_s);
};

/// A workload on a module in a chassis slot (placement.hpp's Placement is a
/// fleet replica's).
struct WorkloadPlacement {
  std::string workload;
  std::string slot;
  std::string module;
  double latency_s = 0;
  double avg_power_w = 0;     ///< duty-cycled average power contribution
  double utilization = 0;     ///< fraction of the module's time consumed
};

/// Greedy energy-minimizing scheduler over an (already populated) chassis.
class ResourceManager {
 public:
  explicit ResourceManager(const Chassis& chassis);

  /// Place all workloads; throws PlatformError when some workload cannot be
  /// placed within latency and utilization constraints.
  std::vector<WorkloadPlacement> place(const std::vector<Workload>& workloads);

  /// Re-place after losing a slot (module exchange/failure): workloads that
  /// were on \p failed_slot move elsewhere, other placements are kept.
  std::vector<WorkloadPlacement> migrate(const std::vector<WorkloadPlacement>& current,
                                         const std::vector<Workload>& workloads,
                                         const std::string& failed_slot);

  /// Total duty-cycled power of a placement set (modules idle when unused).
  static double total_average_power_w(const std::vector<WorkloadPlacement>& placements);

  /// Effective-capacity adjustment (thermal throttle / shared tenancy):
  /// scale the slot's achievable GOPS by \p scale in (0, 1]. Scale 1.0
  /// restores full capacity. Throws NotFound for unknown slots.
  void set_capacity_scale(const std::string& slot, double scale);

  /// Current effective-capacity multiplier of a slot (1.0 = healthy).
  double capacity_scale(const std::string& slot) const;

  /// Remaining utilization headroom of a slot in [0, 1].
  double utilization_headroom(const std::string& slot) const;

  /// Slots this manager can still place onto (surviving candidate set).
  std::vector<std::string> slots() const;

 private:
  struct Candidate {
    std::string slot;
    MicroserverModule module;
    double busy = 0;   ///< accumulated utilization
    double scale = 1;  ///< effective-capacity multiplier (thermal throttle)
  };
  std::optional<WorkloadPlacement> try_place(const Workload& w, Candidate& c) const;
  const Candidate& candidate(const std::string& slot) const;

  std::vector<Candidate> candidates_;
};

}  // namespace vedliot::platform
