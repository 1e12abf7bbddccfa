#include "serve/integrity_soak.hpp"

#include <algorithm>
#include <cmath>

#include "graph/zoo.hpp"
#include "obs/json.hpp"
#include "platform/baseboard.hpp"
#include "serve/soak.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace vedliot::serve {

namespace {

/// Independent deterministic streams (soak.cpp keeps the same discipline):
/// the load schedule, the SEU campaign, the model weights and the
/// simulator's transient draws must not perturb each other across flip
/// rates.
constexpr std::uint64_t kLoadStream = 0xA11CEull;
constexpr std::uint64_t kFlipStream = 0x5EBull;
constexpr std::uint64_t kModelStream = 0x30DE1ull;
constexpr std::uint64_t kSimStream = 0x51ull;

bool is_detection(ServeEventKind k) { return k == ServeEventKind::kScrubHit; }

bool is_recovery(ServeEventKind k) {
  return k == ServeEventKind::kModelReloaded || k == ServeEventKind::kOtaRolledBack;
}

/// Invariants 1 + 3 (event side): every memory fault is followed by a scrub
/// hit within the detection bound, and every scrub hit is healed by a
/// recovery event at the same timestamp (recovery is synchronous).
void check_detection_invariant(const FleetReport& report, double bound_s,
                               IntegritySoakResult& out) {
  for (std::size_t i = 0; i < report.events.size(); ++i) {
    const ServeEvent& e = report.events[i];
    if (e.kind == ServeEventKind::kMemoryFault) {
      double detected_at = -1;
      for (std::size_t j = i + 1; j < report.events.size(); ++j) {
        if (is_detection(report.events[j].kind)) {
          detected_at = report.events[j].time_s;
          break;
        }
      }
      if (detected_at < 0) {
        out.violations.push_back("memory fault at " + std::to_string(e.time_s) +
                                 "s never detected");
        continue;
      }
      const double latency = detected_at - e.time_s;
      if (latency > bound_s + 1e-9) {
        out.violations.push_back("detection latency " + std::to_string(latency) +
                                 "s exceeds bound " + std::to_string(bound_s) +
                                 "s for fault at " + std::to_string(e.time_s) + "s");
      }
      out.max_detection_s = std::max(out.max_detection_s, latency);
      out.mean_detection_s += latency;  // normalized by the caller
    }
    if (is_detection(e.kind)) {
      // The self-healing reload is synchronous with detection: a recovery
      // event must follow at the same simulated time.
      bool healed = false;
      for (std::size_t j = i + 1; j < report.events.size(); ++j) {
        if (report.events[j].time_s > e.time_s + 1e-12) break;
        if (is_recovery(report.events[j].kind)) {
          healed = true;
          break;
        }
      }
      if (!healed) {
        out.violations.push_back("scrub hit at " + std::to_string(e.time_s) +
                                 "s not followed by a recovery event");
      }
    }
  }
}

}  // namespace

std::string IntegritySoakResult::to_json() const {
  std::string out = "{\"record\":\"soak-integrity\"";
  out += ",\"seed\":" + obs::json_number(static_cast<double>(config.seed));
  out += ",\"flip_rate_hz\":" + obs::json_number(config.flip_rate_hz);
  out += ",\"duration_s\":" + obs::json_number(config.duration_s);
  out += ",\"arrival_hz\":" + obs::json_number(config.arrival_hz);
  out += ",\"backends\":" + obs::json_number(static_cast<double>(config.n_backends));
  out += ",\"offered\":" + obs::json_number(static_cast<double>(report.offered));
  out += ",\"completed\":" + obs::json_number(static_cast<double>(report.completed));
  out += ",\"deadline_missed\":" + obs::json_number(static_cast<double>(report.deadline_missed));
  out += ",\"memory_faults\":" + obs::json_number(static_cast<double>(report.memory_faults));
  out += ",\"scrub_hits\":" + obs::json_number(static_cast<double>(report.scrub_hits));
  out += ",\"quarantines\":" + obs::json_number(static_cast<double>(report.quarantines));
  out += ",\"model_reloads\":" + obs::json_number(static_cast<double>(report.model_reloads));
  out += ",\"ota_staged\":" + obs::json_number(static_cast<double>(report.ota_staged));
  out += ",\"ota_committed\":" + obs::json_number(static_cast<double>(report.ota_committed));
  out += ",\"ota_rejected\":" + obs::json_number(static_cast<double>(report.ota_rejected));
  out +=
      ",\"ota_rolled_back\":" + obs::json_number(static_cast<double>(report.ota_rolled_back));
  out +=
      ",\"integrity_checks\":" + obs::json_number(static_cast<double>(report.integrity_checks));
  out +=
      ",\"integrity_faults\":" + obs::json_number(static_cast<double>(report.integrity_faults));
  out += ",\"quality_degraded\":" + obs::json_number(static_cast<double>(report.quality_degraded));
  out += ",\"dirty_at_end\":" + obs::json_number(static_cast<double>(report.dirty_at_end));
  out += ",\"detection_bound_s\":" + obs::json_number(detection_bound_s);
  out += ",\"max_detection_s\":" + obs::json_number(max_detection_s);
  out += ",\"mean_detection_s\":" + obs::json_number(mean_detection_s);
  out += ",\"events\":" + obs::json_number(static_cast<double>(report.events.size()));
  out += ",\"events_fnv1a\":\"" + event_digest(report.events) + "\"";
  out += ",\"sim\":\"" + obs::json_escape(sim_describe) + "\"";
  return out + violations_json(violations);
}

IntegritySoakResult run_integrity_soak(const IntegritySoakConfig& cfg) {
  VEDLIOT_CHECK(cfg.duration_s > 0, "soak duration must be positive");
  VEDLIOT_CHECK(cfg.flip_rate_hz >= 0, "flip rate must be >= 0");
  VEDLIOT_CHECK(cfg.arrival_hz > 0, "arrival rate must be positive");
  VEDLIOT_CHECK(cfg.n_backends >= 1 && cfg.n_backends <= 4,
                "a RECS|Box soak uses 1..4 backend modules");
  VEDLIOT_CHECK(cfg.scrub_per_tick >= 1, "scrub budget must be >= 1");

  // Platform: RECS|Box Xavier modules on a star fabric, hub as ingress.
  platform::Chassis chassis((platform::recs_box()));
  std::vector<std::string> slots;
  for (int i = 0; i < cfg.n_backends; ++i) {
    const std::string slot = "come" + std::to_string(i);
    chassis.install(slot, platform::find_module("COMe-XavierAGX"));
    slots.push_back(slot);
  }
  platform::Fabric fabric =
      platform::star_fabric({"come0", "come1", "come2", "come3"}, 10.0, {1.0, 10.0});

  platform::PlatformSimulator::Config sim_cfg;
  sim_cfg.seed = cfg.seed ^ kSimStream;
  platform::PlatformSimulator sim(std::move(chassis), std::move(fabric), sim_cfg);

  // Model under protection: a tiny CNN served with real tensors, so the
  // robustness service genuinely verifies every delivered output.
  Graph model = zoo::micro_cnn("integrity", 1, 3, 16, 8, 8);
  Rng weight_rng(cfg.seed ^ kModelStream);
  model.materialize_weights(weight_rng);

  safety::ModelStore store;
  safety::RobustnessService::Config rc;
  rc.check_period = 1;  // invariant 2: every delivery is verified
  rc.tolerance = 1e-4;
  safety::RobustnessService robustness(model, rc);

  FleetConfig fleet_cfg;
  fleet_cfg.graph = &model;
  fleet_cfg.variants = {ModelVariant{"integrity-fp32", &model, DType::kFP32, false}};
  fleet_cfg.max_batch = 2;
  fleet_cfg.ladder = {BrownoutStep{0, 2}};
  fleet_cfg.modules = {"COMe-XavierAGX"};
  const auto replicas = static_cast<std::size_t>(cfg.n_backends);
  fleet_cfg.min_replicas = fleet_cfg.initial_replicas = fleet_cfg.max_replicas = replicas;
  fleet_cfg.seed = cfg.seed;
  fleet_cfg.execute = true;
  fleet_cfg.sim = &sim;
  fleet_cfg.robustness = &robustness;
  fleet_cfg.store = &store;
  fleet_cfg.scrub.tensors_per_tick = cfg.scrub_per_tick;
  // Probation must outlast a full detection sweep, or a bad push flipping
  // bits right after commit could be misread as an SEU once the counter
  // runs out before the sweep reaches the corrupt tensor.
  fleet_cfg.ota_probation_sweeps = 2;

  SoakProbe probe;
  fleet_cfg.trace = &probe.trace;
  fleet_cfg.metrics = &probe.metrics;

  Fleet fleet(fleet_cfg);

  // Detection bound from the scrub geometry: one full sweep plus two ticks
  // of slack (the fault can land just after a tick, and recovery logs on
  // the tick that scans the corrupt tensor).
  const std::size_t entries = digest_weights(model).size();
  const std::size_t sweep_ticks = (entries + cfg.scrub_per_tick - 1) / cfg.scrub_per_tick;
  const double bound_s =
      static_cast<double>(sweep_ticks + 2) * fleet_cfg.control_period_s;

  // SEU campaign: single-bit flips in the first 30% of the run, clear of
  // the OTA scenario so random flips repair and scripted ones roll back.
  platform::FaultTimeline timeline;
  Rng flip_rng(cfg.seed ^ kFlipStream);
  const auto n_flips =
      static_cast<std::size_t>(std::lround(cfg.flip_rate_hz * cfg.duration_s));
  for (std::size_t i = 0; i < n_flips; ++i) {
    platform::FaultEvent e;
    e.kind = platform::FaultKind::kMemoryFault;
    e.time_s = flip_rng.uniform(0.05, 0.30) * cfg.duration_s;
    e.slot = slots[static_cast<std::size_t>(
        flip_rng.uniform_int(0, static_cast<std::int64_t>(slots.size()) - 1))];
    e.magnitude = 1.0;
    timeline.push(e);
  }

  std::size_t scripted_faults = 0;
  std::size_t corrupted_otas = 0;
  if (cfg.ota_scenario) {
    // Good push: same architecture, slightly re-tuned weights -> commits.
    const Graph v2 = retuned(model, 1.02f);
    fleet.submit_ota(0.45 * cfg.duration_s, safety::make_ota_package(v2));

    // Corrupt push: the same payload, damaged in transit by a scheduled
    // kOtaCorrupt marker -> must be rejected at staging.
    platform::FaultEvent corrupt;
    corrupt.kind = platform::FaultKind::kOtaCorrupt;
    corrupt.time_s = 0.55 * cfg.duration_s;
    timeline.push(corrupt);
    fleet.submit_ota(0.60 * cfg.duration_s, safety::make_ota_package(v2));
    ++corrupted_otas;

    // Bad push: commits cleanly, then an SEU lands inside the probation
    // window -> the whole update must roll back.
    const Graph v3 = retuned(model, 0.97f);
    fleet.submit_ota(0.70 * cfg.duration_s, safety::make_ota_package(v3));
    platform::FaultEvent probation_seu;
    probation_seu.kind = platform::FaultKind::kMemoryFault;
    probation_seu.time_s = 0.70 * cfg.duration_s + 1.5 * fleet_cfg.control_period_s;
    probation_seu.slot = slots.front();
    probation_seu.magnitude = 1.0;
    timeline.push(probation_seu);
    ++scripted_faults;
  }
  sim.schedule(timeline);

  // Open-loop seeded load, identical across flip rates.
  Rng load_rng(cfg.seed ^ kLoadStream);
  std::vector<std::uint64_t> ids;
  double t = 0;
  std::uint64_t i = 0;
  while (true) {
    t += -std::log(1.0 - load_rng.uniform()) / cfg.arrival_hz;
    if (t >= cfg.duration_s) break;
    Request r;
    r.client = "client" + std::to_string(i % 4);
    r.arrival_s = t;
    r.deadline_s = t + load_rng.jittered(cfg.deadline_s, 0.3);
    ids.push_back(fleet.submit(r));
    ++i;
  }

  IntegritySoakResult result;
  result.config = cfg;
  result.detection_bound_s = bound_s;
  result.report = fleet.run(cfg.duration_s);
  result.sim_describe = sim.describe();

  // Invariants 1 + 3 (events).
  check_detection_invariant(result.report, bound_s, result);
  if (result.report.memory_faults > 0) {
    result.mean_detection_s /= static_cast<double>(result.report.memory_faults);
  }
  if (result.report.memory_faults != n_flips + scripted_faults) {
    // A random SEU can land on a crashed module and be skipped; this soak
    // schedules no crashes, so every scheduled fault must apply.
    result.violations.push_back("applied memory faults " +
                                std::to_string(result.report.memory_faults) + " != scheduled " +
                                std::to_string(n_flips + scripted_faults));
  }

  // Invariant 2: nothing was delivered unchecked.
  const std::size_t delivered = result.report.completed + result.report.deadline_missed;
  if (result.report.integrity_checks != delivered) {
    result.violations.push_back("integrity checks " +
                                std::to_string(result.report.integrity_checks) +
                                " != delivered responses " + std::to_string(delivered));
  }

  // Invariant 3 (end state): the healed fleet leaves no corrupt tensor.
  if (result.report.dirty_at_end != 0) {
    result.violations.push_back("run ended with " + std::to_string(result.report.dirty_at_end) +
                                " corrupt tensor(s) unhealed");
  }

  // Invariant 4: bad OTA never sticks.
  if (cfg.ota_scenario) {
    if (result.report.ota_rejected != corrupted_otas) {
      result.violations.push_back("corrupted OTA payloads " + std::to_string(corrupted_otas) +
                                  " but " + std::to_string(result.report.ota_rejected) +
                                  " rejections");
    }
    if (result.report.ota_rolled_back != 1) {
      result.violations.push_back("scripted bad push ended with " +
                                  std::to_string(result.report.ota_rolled_back) +
                                  " rollbacks (want exactly 1)");
    }
    if (result.report.ota_staged != 3) {
      result.violations.push_back("staged " + std::to_string(result.report.ota_staged) +
                                  " OTA payloads (want 3)");
    }
  }

  check_conservation(result.report, ids, result.violations);
  probe.close(result.report.events, "vedliot.fleet", result.sim_describe, result.violations);
  return result;
}

}  // namespace vedliot::serve
