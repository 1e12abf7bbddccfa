#pragma once
/// \file ota_soak.hpp
/// \brief Deterministic fleet-rollout soak (`bench/soak ota`, records
/// "soak-ota"): resumable transfers over a lossy fabric, staged canary
/// waves, halt-and-rollback containment.
///
/// One run_ota_soak() call builds a SMARC device swarm on a star fabric,
/// schedules a seeded lossy-fabric campaign (partitions, crashes, packet
/// duplication/reordering at the configured fault rate) and drives one
/// fleet-wide OTA rollout (serve/rollout.hpp) of a sealed v2 package from
/// version 1 to version 2 — or, in the bad-package scenario, a package that
/// commits on-device but diverges from the release manifest and must be
/// halted at the canary wave and rolled back everywhere.
///
/// Invariants machine-checked on every run:
///
///   1. convergence — the rollout reaches a terminal state and every live
///      device ends on a *verified* version: its serve fingerprint equals
///      the baseline CRC (v1) or the target CRC (v2), never anything else;
///   2. no torn install — a device only stages after receiving every
///      distinct chunk, only commits after staging, and no probe ever
///      catches a device serving an unverifiable image (torn_serves == 0);
///      version-skew honesty rides along: zero cache CRC mismatches;
///   3. bounded rollback traffic — rollback events in any time interval
///      respect the token bucket (count <= burst + rate * span), and the
///      bad-package scenario finishes its fleet rollback within the pacing
///      budget (queue length minus burst, paid at the refill rate);
///   4. monotone progress — the committed-device curve never decreases
///      within a run (a halt stops progress; it never un-counts commits
///      until the paced rollbacks drain, which the curve does not sample);
///   5. observability — every ServeEvent mirrors 1:1, in order, into the
///      tracer ("vedliot.serve" instants) and per-kind counters match
///      (EventLog::check_mirror, run by the shared SoakProbe in soak.hpp;
///      RolloutController is not a Fleet, so check_fleet_run does not apply).
///
/// Everything derives from the seed: two runs of the same config serialize
/// to bitwise-identical to_json() strings (bench/soak.cpp verifies this).

#include <cstdint>
#include <string>
#include <vector>

#include "serve/rollout.hpp"

namespace vedliot::soak {

struct OtaSoakConfig {
  std::uint64_t seed = 0x5EEDu;
  double duration_s = 4.0;   ///< simulated budget (convergence is earlier)
  double fault_rate = 0.0;   ///< transient damage prob + campaign scale
  int n_devices = 12;
  bool bad_package = false;  ///< target diverges from the release manifest

  static constexpr std::size_t kChunkBytes = 1024;
  /// Lossy campaign window (events + heals). Deliberately tight: the
  /// rollout converges within tens of milliseconds, and the campaign must
  /// land inside the transfer window to actually sever live transfers.
  static constexpr double kCampaignS = 0.04;
};

struct OtaSoakResult {
  OtaSoakConfig config;
  serve::RolloutReport report;
  std::vector<std::string> violations;  ///< empty = all five invariants hold
  std::string sim_describe;             ///< seed/fault identity of the run

  bool converged = false;        ///< invariant 1 held
  bool no_torn_install = false;  ///< invariant 2 held
  double rollback_span_s = 0;    ///< halt -> last rollback (bad package)

  bool ok() const { return violations.empty(); }

  /// Deterministic JSON-lines record ("record":"soak-ota"); bitwise
  /// identical across runs of the same config.
  std::string to_json() const;
};

/// Run one seeded fleet-rollout soak at the configured fault rate.
OtaSoakResult run_ota_soak(const OtaSoakConfig& config);

}  // namespace vedliot::soak
