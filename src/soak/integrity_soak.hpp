#pragma once
/// \file integrity_soak.hpp
/// \brief Deterministic memory-fault soak for the silent-data-corruption
/// defense (scrubbing + self-healing reload + OTA rollback;
/// `bench/soak integrity`, records "soak-integrity").
///
/// One run_integrity_soak() call serves a tiny CNN from a Fleet in
/// integrity mode — execute mode with a per-delivery robustness check
/// (check_period = 1), one deployed copy and weight scrubber per replica
/// and a golden ModelStore — on a simulated RECS|Box (recs_world, soak.hpp),
/// then attacks it three ways:
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
///      on the faulted replica within (ticks_per_sweep + 2) control ticks
///      of injection (check_detection);
///   2. no unchecked delivery — every delivered response (completed or
///      late) was verified by the robustness service: integrity_checks ==
///      completed + deadline_missed;
///   3. bounded recovery — every detection self-heals at detection time
///      (kModelReloaded on the same replica, or the fleet-wide
///      kOtaRolledBack), and a final full scan leaves zero corrupt tensors
///      (dirty_at_end == 0);
///   4. bad OTA never sticks — every corrupted payload is rejected
///      pre-swap, and the scripted bad push always ends in kOtaRolledBack;
///   5. every contract of the fleet run (check_fleet_run, soak.hpp).
///
/// Everything derives from the seed; two runs of the same config are
/// bitwise identical (to_json string compare, repeated by bench/soak.cpp).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/fleet.hpp"

namespace vedliot::soak {

struct IntegritySoakConfig {
  std::uint64_t seed = 0x5EEDu;
  double duration_s = 1.0;
  double flip_rate_hz = 0.0;  ///< random SEU events per second (0 = none)
  double arrival_hz = 400.0;  ///< offered load (execute mode, real tensors)

  static constexpr int kBackends = 2;              ///< RECS|Box modules, one replica each
  static constexpr double kDeadlineS = 60e-3;      ///< generous; this soak is not a load test
  static constexpr std::size_t kScrubPerTick = 4;  ///< WeightScrubber budget per control tick
};

struct IntegritySoakResult {
  IntegritySoakConfig config;
  serve::FleetReport report;
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

/// Invariants 1 and 3 over one run's events. Each replica scrubs its own
/// copy, so a kMemoryFault on `backend <slot>` is detected by the first
/// later kScrubHit on that same subject, within \p bound_s; each kScrubHit
/// heals at its own time by a kModelReloaded on its subject or the
/// fleet-wide kOtaRolledBack. Sets \p out's max and mean detection latency
/// (the mean over every fault) and appends to its violations.
void check_detection(std::span<const serve::ServeEvent> events, double bound_s,
                     IntegritySoakResult& out);

}  // namespace vedliot::soak
