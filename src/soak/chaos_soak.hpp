#pragma once
/// \file chaos_soak.hpp
/// \brief The deterministic closed-loop chaos soak for serving
/// (`bench/soak serve`, records "soak-serve").
///
/// One run_soak() call builds a RECS|Box chassis with a star fabric
/// (recs_world, soak.hpp), schedules a seeded open-loop load (independent
/// RNG stream) and a seeded fault campaign scaled by `fault_rate` (another
/// independent stream) onto its fault-injecting PlatformSimulator, drives a
/// Fleet with one replica per installed module through it, and checks the
/// serving invariants:
///
///   1. every contract of the fleet run (check_fleet_run, soak.hpp); at
///      fault rate zero no deadline miss is excused, under faults a miss
///      needs a retry of that request or an overlapping scheduled fault;
///   2. (cross-run, in bench/soak.cpp) goodput is monotone non-increasing
///      in fault rate over the same load schedule.
///
/// Everything derives from the seed, so two runs of one config serialize to
/// bitwise-identical to_json(). Violation messages embed
/// PlatformSimulator::describe() so a failing CI log carries the seed that
/// reproduces it.

#include <cstdint>
#include <string>
#include <vector>

#include "serve/fleet.hpp"

namespace vedliot::soak {

struct SoakConfig {
  std::uint64_t seed = 0x5EEDu;
  double duration_s = 2.0;
  double fault_rate = 0.0;  ///< 0 = healthy; scales campaign + transients

  /// Offered load (Poisson-like, seeded): ~3x the healthy fp32 capacity,
  /// so the brownout ladder genuinely engages and every run pins past the
  /// fp32<->int8 boundary (where goodput-vs-fault-rate would not be
  /// monotone).
  static constexpr double kArrivalHz = 7000.0;
  static constexpr int kBackends = 3;                ///< RECS|Box modules, one replica each
  static constexpr double kDeadlineS = 20e-3;        ///< mean per-request budget (jittered)
  static constexpr std::size_t kQueueCapacity = 32;  ///< per replica
};

struct SoakResult {
  SoakConfig config;
  serve::FleetReport report;
  std::vector<std::string> violations;  ///< empty = per-run invariants hold
  std::string sim_describe;             ///< seed/fault identity of the run

  double goodput() const { return report.goodput(); }
  bool ok() const { return violations.empty(); }

  /// Deterministic JSON-lines record ("record":"soak-serve"); bitwise
  /// identical across runs of the same config.
  std::string to_json() const;
};

/// Run one seeded soak at the configured fault rate.
SoakResult run_soak(const SoakConfig& config);

}  // namespace vedliot::soak
