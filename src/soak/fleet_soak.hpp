#pragma once
/// \file fleet_soak.hpp
/// \brief Deterministic soak for the fleet layer (`bench/soak fleet`,
/// records "soak-fleet"): generated million-user traffic against an
/// autoscaled, power-budgeted fleet, with machine-checked invariants.
///
/// One run_fleet_soak() call generates a seeded traffic shape (traffic.hpp:
/// diurnal / flash-crowd / retry-storm over a Zipf client population),
/// drives a Fleet through it, and checks:
///
///   1. every contract of the fleet run (check_fleet_run, soak.hpp); with
///      no simulator no fault excuses a late delivery: the fleet cancels at
///      dispatch instead of serving past-deadline work;
///   2. batched-vs-singleton equality (execute mode) — a sample of batched
///      outputs is re-run as singletons and must match CRC-for-CRC bitwise.
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

namespace vedliot::soak {

struct FleetSoakConfig {
  std::uint64_t seed = 0x5EEDu;
  serve::TrafficPattern pattern = serve::TrafficPattern::kDiurnal;
  double duration_s = 2.0;
  double base_hz = 2000.0;     ///< offered aggregate rate (pattern-shaped)
  std::size_t fleet_size = 4;  ///< replica ceiling
  bool autoscale = true;       ///< false = pin replicas at fleet_size

  /// Run real tensors (micro CNN, materialized from the seed) instead of
  /// the analytic ResNet-50 timing model; enables the batched-vs-singleton
  /// CRC equality check.
  bool execute = false;

  static constexpr std::int64_t kMaxBatch = 8;
  static constexpr std::size_t kQueueCapacity = 64;
  static constexpr double kDeadlineS = 0.08;  ///< mean relative deadline (jittered)
  /// Execute mode: how many completed responses to re-run as singletons
  /// for the CRC equality check.
  static constexpr std::size_t kEqualitySamples = 32;
};

struct FleetSoakResult {
  FleetSoakConfig config;
  serve::FleetReport report;
  std::vector<std::string> violations;  ///< empty = per-run invariants hold

  double goodput() const { return report.goodput(); }
  bool ok() const { return violations.empty(); }

  /// Deterministic JSON-lines record ("record":"soak-fleet"); bitwise
  /// identical across runs of the same config.
  std::string to_json() const;
};

/// Run one seeded fleet soak.
FleetSoakResult run_fleet_soak(const FleetSoakConfig& config);

}  // namespace vedliot::soak
