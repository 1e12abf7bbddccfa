#pragma once
/// \file fleet_soak.hpp
/// \brief Deterministic soak for the fleet layer: generated million-user
/// traffic against an autoscaled, power-budgeted fleet, with machine-checked
/// invariants.
///
/// One run_fleet_soak() call generates a seeded traffic shape (traffic.hpp:
/// diurnal / flash-crowd / retry-storm over a Zipf client population),
/// drives a Fleet through it, and checks:
///
///   1. accounting conservation — every offered request gets exactly one
///      terminal Response, and completed + late + shed + cancelled + failed
///      equals offered (nothing is dropped or double-counted; the check is
///      shared with the chaos soak, soak.hpp);
///   2. capacity-honest deadlines — a delivered response is never late:
///      the fleet cancels at dispatch instead of serving past-deadline
///      work, so deadline_missed must be zero and every kOk response lands
///      at or before its request's deadline;
///   3. bounded queues — no replica queue ever exceeds its configured
///      capacity, and the replica count stays within [min, max];
///   4. observable transitions — the event log mirrors 1:1 into the obs
///      tracer and per-kind counters under "vedliot.fleet"
///      (EventLog::check_mirror, run by the shared SoakProbe);
///   5. per-slot power honesty — every replica's metered average busy
///      power stays within the slot budget its chassis admitted the module
///      under, and within the module's own envelope;
///   6. batch honesty — no executed batch carries more real lanes than the
///      configured cap, and (execute mode) a sample of batched outputs is
///      re-run as singletons and must match CRC-for-CRC bitwise.
///
/// Cross-run (bench/soak.cpp): goodput is monotone non-decreasing in fleet
/// size over the same offered load. Everything derives from
/// FleetSoakConfig::seed, so two runs of the same config produce
/// bitwise-identical to_json() (asserted in tests and bench/soak.cpp).

#include <cstdint>
#include <string>
#include <vector>

#include "serve/fleet.hpp"
#include "serve/traffic.hpp"

namespace vedliot::serve {

struct FleetSoakConfig {
  std::uint64_t seed = 0x5EEDu;
  TrafficPattern pattern = TrafficPattern::kDiurnal;
  double duration_s = 2.0;
  double base_hz = 2000.0;     ///< offered aggregate rate (pattern-shaped)
  std::size_t fleet_size = 4;  ///< replica ceiling
  bool autoscale = true;       ///< false = pin replicas at fleet_size
  std::int64_t max_batch = 8;
  std::size_t queue_capacity = 64;
  double deadline_s = 0.08;    ///< mean relative deadline (jittered)

  /// Run real tensors (micro CNN, materialized from the seed) instead of
  /// the analytic ResNet-50 timing model; enables the batched-vs-singleton
  /// CRC equality check.
  bool execute = false;

  /// Execute mode: how many completed responses to re-run as singletons
  /// for the CRC equality check.
  std::size_t equality_samples = 32;
};

struct FleetSoakResult {
  FleetSoakConfig config;
  FleetReport report;
  std::vector<std::string> violations;  ///< empty = per-run invariants hold

  double goodput() const { return report.goodput(); }
  bool ok() const { return violations.empty(); }

  /// Deterministic JSON-lines record ("record":"soak-fleet"); bitwise
  /// identical across runs of the same config.
  std::string to_json() const;
};

/// Run one seeded fleet soak.
FleetSoakResult run_fleet_soak(const FleetSoakConfig& config);

}  // namespace vedliot::serve
