#pragma once
/// \file integrity_soak.hpp
/// \brief Deterministic memory-fault soak for the silent-data-corruption
/// defense (scrubbing + self-healing reload + OTA rollback).
///
/// One run_integrity_soak() call serves a tiny CNN from a Fleet in
/// integrity mode — execute mode with a per-delivery robustness check
/// (check_period = 1), one deployed copy and weight scrubber per replica
/// and a golden ModelStore — then attacks it three ways:
///
///   * a seeded campaign of kMemoryFault events flips single weight bits
///     in the copy deployed on a random replica's slot at `flip_rate_hz`;
///   * one OTA payload is corrupted in transit (kOtaCorrupt marker) and
///     must be rejected at staging with the old version still serving;
///   * one OTA commits cleanly, then an SEU lands inside its probation
///     window — the "bad push" case that must roll the update back.
///
/// Invariants checked on every run:
///
///   1. bounded detection — every memory fault is localized by a scrub hit
///      within (ticks_per_sweep + 2) control ticks of injection;
///   2. no unchecked delivery — every delivered response (completed or
///      late) was verified by the robustness service: integrity_checks ==
///      completed + deadline_missed;
///   3. bounded recovery — every detection self-heals (kModelReloaded or
///      kOtaRolledBack) at detection time, and a final full scan leaves
///      zero corrupt tensors (dirty_at_end == 0);
///   4. bad OTA never sticks — every corrupted payload is rejected
///      pre-swap, and the scripted bad push always ends in kOtaRolledBack.
///
/// Plus what every fleet soak checks: the event mirror
/// (EventLog::check_mirror, run by the shared SoakProbe in soak.hpp) and
/// accounting conservation (check_conservation). Everything derives from the seed; two
/// runs of the same config are bitwise identical (to_json string compare,
/// repeated by bench/soak.cpp).

#include <cstdint>
#include <string>
#include <vector>

#include "serve/fleet.hpp"

namespace vedliot::serve {

struct IntegritySoakConfig {
  std::uint64_t seed = 0x5EEDu;
  double duration_s = 1.0;
  double flip_rate_hz = 0.0;      ///< random SEU events per second (0 = none)
  double arrival_hz = 400.0;      ///< offered load (execute mode, real tensors)
  int n_backends = 2;             ///< modules installed in the RECS|Box (one replica each)
  double deadline_s = 60e-3;      ///< generous; this soak is not a load test
  std::size_t scrub_per_tick = 4; ///< WeightScrubber budget per control tick
  bool ota_scenario = true;       ///< schedule good push / corrupt push / bad push
};

struct IntegritySoakResult {
  IntegritySoakConfig config;
  FleetReport report;
  std::vector<std::string> violations;  ///< empty = all invariants hold
  std::string sim_describe;             ///< seed/fault identity of the run

  double detection_bound_s = 0;   ///< guaranteed worst-case scrub latency
  double max_detection_s = 0;     ///< observed worst fault -> scrub-hit gap
  double mean_detection_s = 0;

  bool ok() const { return violations.empty(); }

  /// Deterministic JSON-lines record ("record":"soak-integrity"); bitwise
  /// identical across runs of the same config.
  std::string to_json() const;
};

/// Run one seeded memory-fault soak at the configured flip rate.
IntegritySoakResult run_integrity_soak(const IntegritySoakConfig& config);

}  // namespace vedliot::serve
