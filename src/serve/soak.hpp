#pragma once
/// \file soak.hpp
/// \brief The plumbing every soak harness shares (this chaos soak,
/// fleet_soak.hpp, integrity_soak.hpp, ota_soak.hpp; bench/soak.cpp drives
/// all four), and the deterministic closed-loop chaos soak for serving.
///
/// One run_soak() call builds a RECS|Box chassis with a star fabric,
/// schedules a seeded open-loop load (independent RNG stream) and a seeded
/// fault campaign scaled by `fault_rate` (another independent stream) onto
/// a fault-injecting PlatformSimulator, drives a Fleet with one replica per
/// installed module on that chassis through it, and checks the serving
/// invariants:
///
///   1. capacity-honest deadlines — at fault rate zero no accepted request
///      may miss its deadline; under faults, every miss's lifetime must
///      overlap an observed failure/retry on that request or a scheduled
///      platform fault window;
///   2. (cross-run, in bench/soak.cpp) goodput is monotone non-increasing
///      in fault rate over the same load schedule;
///   3. bounded queues — no replica queue's max depth exceeds the
///      configured capacity;
///   4. observable transitions — the event log mirrors 1:1 into the obs
///      tracer and per-kind counters (EventLog::check_mirror);
///   5. accounting conservation — every offered request gets exactly one
///      terminal Response (check_conservation, shared with the fleet soak).
///
/// Everything derives from the seed, so two runs of one config serialize to
/// bitwise-identical to_json(). Violation messages embed
/// PlatformSimulator::describe() so a failing CI log carries the seed that
/// reproduces it.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serve/fleet.hpp"

namespace vedliot::serve {

/// What every soak run shares: wire `trace` and `metrics` into the engine
/// under test; after the run, close() adds the event-mirror violations and
/// tags every violation of the run with \p identity (the simulator line
/// that reproduces it; empty = untagged).
struct SoakProbe {
  obs::Tracer trace;
  obs::MetricsRegistry metrics;

  void close(std::span<const ServeEvent> events, std::string_view category,
             const std::string& identity, std::vector<std::string>& violations) const;
};

/// Accounting conservation: one terminal Response per offered request
/// (\p ids, as submit() returned them), and completed + deadline_missed +
/// shed + cancelled + failed == offered.
void check_conservation(const FleetReport& report, const std::vector<std::uint64_t>& ids,
                        std::vector<std::string>& violations);

/// `,"violations":[...]}`: the field that closes every soak record.
std::string violations_json(const std::vector<std::string>& violations);

/// \p g with its first parametric node's first weight tensor scaled by
/// \p factor: the same architecture with new weights, as an OTA update.
Graph retuned(const Graph& g, float factor);

struct SoakConfig {
  std::uint64_t seed = 0x5EEDu;
  double duration_s = 2.0;
  double fault_rate = 0.0;     ///< 0 = healthy; scales campaign + transients
  double arrival_hz = 7000.0;  ///< offered load (Poisson-like, seeded);
                               ///< ~3x the healthy fp32 capacity, so the
                               ///< brownout ladder genuinely engages and
                               ///< every run pins past the fp32<->int8
                               ///< boundary (where goodput-vs-fault-rate
                               ///< would not be monotone)
  int n_backends = 3;          ///< modules installed in the RECS|Box (one replica each)
  double deadline_s = 20e-3;   ///< mean per-request budget (jittered)
  std::size_t queue_capacity = 32;  ///< per replica
};

struct SoakResult {
  SoakConfig config;
  FleetReport report;
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

}  // namespace vedliot::serve
