#include "soak/ota_soak.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "graph/zoo.hpp"
#include "obs/json.hpp"
#include "platform/baseboard.hpp"
#include "soak/soak.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace vedliot::soak {

using namespace serve;

namespace {

/// Independent deterministic streams (the discipline every soak in this
/// repo keeps): the fault campaign, the model weights and the simulator's
/// transient draws must not perturb each other across fault rates.
constexpr std::uint64_t kFaultStream = 0xFA17ull;
constexpr std::uint64_t kModelStream = 0x30DE1ull;
constexpr std::uint64_t kSimStream = 0x51ull;
constexpr std::uint64_t kCanarySeed = 0xCAA1Bull;

/// Invariant 2 (event side): full distinct-chunk coverage before staging,
/// staging before commit — the event record must prove no torn install.
void check_no_torn_install(const std::vector<ServeEvent>& events, std::size_t chunk_count,
                           std::vector<std::string>& violations) {
  std::map<std::string, std::set<std::uint32_t>> seen;
  std::map<std::string, bool> staged_complete;
  for (const ServeEvent& e : events) {
    switch (e.kind) {
      case ServeEventKind::kOtaChunk:
        seen[e.subject].insert(static_cast<std::uint32_t>(e.value));
        break;
      case ServeEventKind::kOtaStaged: {
        const bool full = seen[e.subject].size() == chunk_count;
        staged_complete[e.subject] = full;
        if (!full) {
          violations.push_back(e.subject + " staged with " +
                               std::to_string(seen[e.subject].size()) + "/" +
                               std::to_string(chunk_count) + " distinct chunks");
        }
        break;
      }
      case ServeEventKind::kOtaCommitted: {
        const auto it = staged_complete.find(e.subject);
        if (it == staged_complete.end() || !it->second) {
          violations.push_back(e.subject + " committed without a fully-covered stage");
        }
        break;
      }
      default:
        break;
    }
  }
}

}  // namespace

std::string OtaSoakResult::to_json() const {
  std::string out = "{\"record\":\"soak-ota\"";
  out += ",\"seed\":" + obs::json_number(static_cast<double>(config.seed));
  out += ",\"fault_rate\":" + obs::json_number(config.fault_rate);
  out += ",\"duration_s\":" + obs::json_number(config.duration_s);
  out += ",\"devices\":" + obs::json_number(static_cast<double>(config.n_devices));
  out += ",\"chunk_bytes\":" + obs::json_number(static_cast<double>(OtaSoakConfig::kChunkBytes));
  out += ",\"bad_package\":";
  out += config.bad_package ? "true" : "false";
  out += ",\"converged\":";
  out += converged ? "true" : "false";
  out += ",\"no_torn_install\":";
  out += no_torn_install ? "true" : "false";
  out += ",\"halted\":";
  out += report.halted ? "true" : "false";
  out += ",\"converged_at_s\":" + obs::json_number(report.converged_at_s);
  out += ",\"devices_committed\":" +
         obs::json_number(static_cast<double>(report.devices_committed));
  out += ",\"devices_rejected\":" +
         obs::json_number(static_cast<double>(report.devices_rejected));
  out += ",\"devices_rolled_back\":" +
         obs::json_number(static_cast<double>(report.devices_rolled_back));
  out += ",\"devices_failed\":" + obs::json_number(static_cast<double>(report.devices_failed));
  out += ",\"waves_started\":" + obs::json_number(static_cast<double>(report.waves_started));
  out += ",\"waves_passed\":" + obs::json_number(static_cast<double>(report.waves_passed));
  out += ",\"chunks_sent\":" + obs::json_number(static_cast<double>(report.chunks_sent));
  out += ",\"chunks_accepted\":" +
         obs::json_number(static_cast<double>(report.chunks_accepted));
  out += ",\"chunk_retries\":" + obs::json_number(static_cast<double>(report.chunk_retries));
  out += ",\"duplicates\":" + obs::json_number(static_cast<double>(report.duplicates));
  out += ",\"reorders\":" + obs::json_number(static_cast<double>(report.reorders));
  out += ",\"resumes\":" + obs::json_number(static_cast<double>(report.resumes));
  out += ",\"bytes_sent\":" + obs::json_number(static_cast<double>(report.bytes_sent));
  out += ",\"rollbacks_paced\":" +
         obs::json_number(static_cast<double>(report.rollbacks_paced));
  out += ",\"rollback_span_s\":" + obs::json_number(rollback_span_s);
  out += ",\"skew_probes\":" + obs::json_number(static_cast<double>(report.skew_probes));
  out += ",\"skew_cache_hits\":" +
         obs::json_number(static_cast<double>(report.skew_cache_hits));
  out += ",\"skew_version_misses\":" +
         obs::json_number(static_cast<double>(report.skew_version_misses));
  out += ",\"skew_mismatches\":" +
         obs::json_number(static_cast<double>(report.skew_mismatches));
  out += ",\"torn_serves\":" + obs::json_number(static_cast<double>(report.torn_serves));
  out += ",\"events\":" + obs::json_number(static_cast<double>(report.events.size()));
  out += ",\"events_fnv1a\":\"" + event_digest(report.events) + "\"";
  out += ",\"sim\":\"" + obs::json_escape(sim_describe) + "\"";
  return out + violations_json(violations);
}

OtaSoakResult run_ota_soak(const OtaSoakConfig& cfg) {
  VEDLIOT_CHECK(cfg.duration_s > 0, "soak duration must be positive");
  VEDLIOT_CHECK(cfg.fault_rate >= 0 && cfg.fault_rate < 1, "fault rate must be in [0, 1)");
  VEDLIOT_CHECK(cfg.n_devices >= 2 && cfg.n_devices <= 64,
                "an OTA swarm soak uses 2..64 devices");

  // Device swarm: one SMARC far-edge module per slot, star fabric to the
  // OTA distribution hub ("switch0").
  platform::BaseboardSpec spec;
  spec.name = "ota-swarm";
  std::vector<std::string> slots;
  for (int i = 0; i < cfg.n_devices; ++i) {
    const std::string slot = "dev" + std::to_string(i);
    spec.slots.push_back(platform::SlotSpec{slot, {platform::FormFactor::kSMARC}, 8.0});
    slots.push_back(slot);
  }
  spec.total_power_budget_w = 8.0 * cfg.n_devices;
  spec.ethernet_gbps = {1.0};
  platform::Chassis chassis(spec);
  for (const std::string& slot : slots) {
    chassis.install(slot, platform::find_module("SMARC-iMX8MPlus"));
  }
  platform::Fabric fabric = platform::star_fabric(slots, 1.0, {1.0});

  platform::PlatformSimulator::Config sim_cfg;
  sim_cfg.transient_transfer_prob = cfg.fault_rate;
  sim_cfg.seed = cfg.seed ^ kSimStream;
  platform::PlatformSimulator sim(std::move(chassis), std::move(fabric), sim_cfg);

  // Lossy campaign: partitions, crashes, packet duplication/reordering,
  // scaled by the fault rate; every injection heals within the window.
  if (cfg.fault_rate > 0) {
    Rng campaign_rng(cfg.seed ^ kFaultStream);
    const auto n_faults = static_cast<std::size_t>(std::lround(cfg.fault_rate * 120.0));
    const double intensity = std::min(0.9, cfg.fault_rate * 3.0);
    sim.schedule(platform::FaultTimeline::lossy_fabric_campaign(
        slots, n_faults, OtaSoakConfig::kCampaignS, intensity, campaign_rng));
    // Ambient lossiness: beyond the episodic campaign hazards, a lossy
    // fabric duplicates and reorders a fraction of *all* traffic. Arm a
    // baseline hazard on every hub link for the whole run so the dup /
    // reorder tolerance paths are exercised at scale, not by coincidence
    // of a campaign window landing on an actively-transferring device.
    const double ambient = std::min(0.45, cfg.fault_rate);
    for (const std::string& slot : slots) {
      platform::FaultEvent dup;
      dup.time_s = 0.0;
      dup.kind = platform::FaultKind::kPacketDup;
      dup.magnitude = ambient;
      dup.a = "switch0";
      dup.b = slot;
      platform::FaultEvent reorder = dup;
      reorder.kind = platform::FaultKind::kPacketReorder;
      sim.schedule(dup);
      sim.schedule(reorder);
    }
  }

  // Versions: v1 baseline, v2 the intended release. The bad-package
  // scenario ships a payload that is internally consistent (its declared
  // canary outputs match its own behavior, so ModelStore::push commits)
  // but whose serve fingerprint diverges from the release manifest —
  // exactly the failure the canary wave's health gate exists to catch.
  Graph v1 = zoo::micro_cnn("ota", 1, 3, 8, 8, 8);
  Rng weight_rng(cfg.seed ^ kModelStream);
  v1.materialize_weights(weight_rng);
  const Graph v2 = retuned(v1, 1.02f);
  const std::uint32_t manifest_crc = RolloutController::serve_crc_of(v2, kCanarySeed);
  const Graph bad = retuned(v1, 0.95f);
  const Graph& target = cfg.bad_package ? bad : v2;

  RolloutConfig rc;
  rc.devices = slots;
  rc.hub = "switch0";
  rc.model_name = "ota";
  // The bad-package run commits a wide canary wave on purpose: the halt
  // then has to drain more rollbacks than the token-bucket burst, which is
  // what makes the pacing-budget and bounded-traffic checks meaningful.
  rc.canary_devices =
      cfg.bad_package ? std::max<std::size_t>(2, static_cast<std::size_t>(cfg.n_devices) / 2)
                      : 2;
  rc.wave_growth = 2.0;
  rc.failure_threshold = 0.25;
  rc.control_period_s = 5e-3;
  rc.rollback_rate_per_s = 100.0;
  rc.rollback_burst = 2.0;
  rc.chunk_bytes = OtaSoakConfig::kChunkBytes;
  rc.canary_seed = kCanarySeed;
  rc.seed = cfg.seed;

  SoakProbe probe;
  rc.trace = &probe.trace;
  rc.metrics = &probe.metrics;

  RolloutController controller(sim, rc);
  controller.set_baseline(v1);
  controller.set_target(safety::make_ota_package(target, kCanarySeed, 2), manifest_crc);
  const std::uint32_t baseline_crc = RolloutController::serve_crc_of(v1, kCanarySeed);
  const std::uint32_t target_crc = RolloutController::serve_crc_of(target, kCanarySeed);

  OtaSoakResult result;
  result.config = cfg;
  result.report = controller.run(cfg.duration_s);
  result.sim_describe = sim.describe();
  const RolloutReport& report = result.report;

  // Invariant 1: convergence onto verified versions.
  if (!report.converged) {
    result.violations.push_back("rollout did not reach a terminal state within " +
                                std::to_string(cfg.duration_s) + "s");
  }
  for (const DeviceOutcome& d : report.outcomes) {
    const std::uint32_t expect = d.version == 1 ? baseline_crc : target_crc;
    if (d.serve_crc != expect) {
      result.violations.push_back(d.slot + " ends with serve crc " +
                                  std::to_string(d.serve_crc) + " != verified version " +
                                  std::to_string(d.version) + " fingerprint");
    }
  }
  if (cfg.bad_package) {
    for (const DeviceOutcome& d : report.outcomes) {
      if (d.version != 1) {
        result.violations.push_back(d.slot + " left on version " + std::to_string(d.version) +
                                    " after a halted rollout");
      }
      if (d.committed && !d.rolled_back) {
        result.violations.push_back(d.slot + " committed the bad package but was never "
                                    "rolled back");
      }
    }
  } else {
    if (report.devices_committed != static_cast<std::size_t>(cfg.n_devices)) {
      result.violations.push_back("good rollout committed " +
                                  std::to_string(report.devices_committed) + "/" +
                                  std::to_string(cfg.n_devices) + " devices");
    }
    if (report.halted || report.devices_rolled_back != 0) {
      result.violations.push_back("good rollout halted or rolled back");
    }
    if (report.skew_version_misses == 0) {
      result.violations.push_back("version-skew path never exercised: no version misses");
    }
  }

  // Invariant 1 verdict: terminal state + every device on a verified version.
  result.converged = report.converged && result.violations.empty();

  // Invariant 2: no torn install (event record + probe evidence).
  const std::size_t before_torn = result.violations.size();
  const std::size_t chunk_count =
      (safety::make_ota_package(target, kCanarySeed, 2).package.size() +
       OtaSoakConfig::kChunkBytes - 1) /
      OtaSoakConfig::kChunkBytes;
  check_no_torn_install(report.events, chunk_count, result.violations);
  if (report.torn_serves != 0) {
    result.violations.push_back(std::to_string(report.torn_serves) +
                                " probe(s) caught an unverifiable serving image");
  }
  if (report.skew_mismatches != 0) {
    result.violations.push_back(std::to_string(report.skew_mismatches) +
                                " version-skew cache CRC mismatch(es)");
  }
  result.no_torn_install = result.violations.size() == before_torn;

  // Invariant 3: bounded rollback traffic.
  std::vector<double> rollback_times;
  double halt_time = -1;
  for (const ServeEvent& e : report.events) {
    if (e.kind == ServeEventKind::kOtaRolledBack) rollback_times.push_back(e.time_s);
    if (e.kind == ServeEventKind::kRolloutHalted) halt_time = e.time_s;
  }
  for (std::size_t j = 0; j < rollback_times.size(); ++j) {
    for (std::size_t k = j + 1; k < rollback_times.size(); ++k) {
      const double span = rollback_times[k] - rollback_times[j];
      const double allowed = rc.rollback_burst + rc.rollback_rate_per_s * span + 1e-6;
      if (static_cast<double>(k - j + 1) > allowed) {
        result.violations.push_back("rollback storm: " + std::to_string(k - j + 1) +
                                    " rollbacks within " + std::to_string(span) +
                                    "s exceed the token bucket");
        j = rollback_times.size();  // one report is enough
        break;
      }
    }
  }
  if (cfg.bad_package) {
    if (halt_time < 0) {
      result.violations.push_back("bad package never halted the rollout");
    } else {
      bool at_canary = false;
      for (const ServeEvent& e : report.events) {
        if (e.kind == ServeEventKind::kRolloutHalted && e.subject == "wave 0") at_canary = true;
      }
      if (!at_canary) {
        result.violations.push_back("bad package halted past the canary wave");
      }
      if (report.waves_passed != 0) {
        result.violations.push_back("bad package passed " +
                                    std::to_string(report.waves_passed) + " wave gate(s)");
      }
      if (!rollback_times.empty()) {
        result.rollback_span_s = rollback_times.back() - halt_time;
        const double budget =
            std::max(0.0, static_cast<double>(rollback_times.size()) - rc.rollback_burst) /
                rc.rollback_rate_per_s +
            2.0 * rc.control_period_s + 1e-6;
        if (result.rollback_span_s > budget) {
          result.violations.push_back("rollback drain took " +
                                      std::to_string(result.rollback_span_s) +
                                      "s, pacing budget is " + std::to_string(budget) + "s");
        }
      }
    }
  }

  // Invariant 4: monotone rollout progress.
  for (std::size_t i = 1; i < report.progress.size(); ++i) {
    if (report.progress[i].second < report.progress[i - 1].second) {
      result.violations.push_back("committed-device curve decreased at " +
                                  std::to_string(report.progress[i].first) + "s");
      break;
    }
  }

  // Invariant 5: observability mirror.
  probe.close(report.events, "vedliot.serve", result.sim_describe, result.violations);
  return result;
}

}  // namespace vedliot::soak
