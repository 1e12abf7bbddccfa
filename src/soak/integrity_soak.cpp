#include "soak/integrity_soak.hpp"

#include <algorithm>
#include <cmath>

#include "graph/zoo.hpp"
#include "obs/json.hpp"
#include "soak/soak.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace vedliot::soak {

using namespace serve;

namespace {

/// Independent deterministic streams (chaos_soak.cpp keeps the same
/// discipline): the load schedule, the SEU campaign, the model weights and
/// the simulator's transient draws (recs_world) must not perturb each other
/// across flip rates.
constexpr std::uint64_t kLoadStream = 0xA11CEull;
constexpr std::uint64_t kFlipStream = 0x5EBull;
constexpr std::uint64_t kModelStream = 0x30DE1ull;

/// A count invariant: \p what must come to \p want.
void expect_count(std::string_view what, std::size_t got, std::size_t want,
                  std::vector<std::string>& violations) {
  if (got == want) return;
  violations.push_back(std::string(what) + " " + std::to_string(got) + " (want " +
                       std::to_string(want) + ")");
}

}  // namespace

void check_detection(std::span<const ServeEvent> events, double bound_s,
                     IntegritySoakResult& out) {
  std::size_t faults = 0;
  double latency_sum = 0;
  for (auto it = events.begin(); it != events.end(); ++it) {
    const ServeEvent& e = *it;
    if (e.kind == ServeEventKind::kMemoryFault) {
      ++faults;
      const auto hit = std::find_if(it + 1, events.end(), [&](const ServeEvent& d) {
        return d.kind == ServeEventKind::kScrubHit && d.subject == e.subject;
      });
      if (hit == events.end()) {
        out.violations.push_back("memory fault on " + e.subject + " at " +
                                 std::to_string(e.time_s) + "s never detected");
        continue;
      }
      const double latency = hit->time_s - e.time_s;
      if (latency > bound_s + 1e-9) {
        out.violations.push_back("detection latency " + std::to_string(latency) +
                                 "s exceeds bound " + std::to_string(bound_s) +
                                 "s for fault on " + e.subject + " at " +
                                 std::to_string(e.time_s) + "s");
      }
      out.max_detection_s = std::max(out.max_detection_s, latency);
      latency_sum += latency;
    }
    if (e.kind == ServeEventKind::kScrubHit) {
      // The self-healing reload is synchronous with detection: the same
      // replica reloads, or the whole fleet rolls back, at the same time.
      bool healed = false;
      for (auto h = it + 1; h != events.end() && h->time_s <= e.time_s + 1e-12; ++h) {
        if ((h->kind == ServeEventKind::kModelReloaded && h->subject == e.subject) ||
            h->kind == ServeEventKind::kOtaRolledBack) {
          healed = true;
          break;
        }
      }
      if (!healed) {
        out.violations.push_back("scrub hit on " + e.subject + " at " +
                                 std::to_string(e.time_s) + "s not followed by its recovery");
      }
    }
  }
  if (faults > 0) out.mean_detection_s = latency_sum / static_cast<double>(faults);
}

std::string IntegritySoakResult::to_json() const {
  std::string out = "{\"record\":\"soak-integrity\"";
  out += ",\"seed\":" + obs::json_number(static_cast<double>(config.seed));
  out += ",\"flip_rate_hz\":" + obs::json_number(config.flip_rate_hz);
  out += ",\"duration_s\":" + obs::json_number(config.duration_s);
  out += ",\"arrival_hz\":" + obs::json_number(config.arrival_hz);
  out += ",\"backends\":" + obs::json_number(static_cast<double>(IntegritySoakConfig::kBackends));
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

  // One replica per Xavier module of a RECS|Box.
  FleetConfig fleet_cfg;
  fleet_cfg.graph = &model;
  fleet_cfg.variants = {ModelVariant{"integrity-fp32", &model, DType::kFP32, false}};
  fleet_cfg.max_batch = 2;
  fleet_cfg.ladder = {BrownoutStep{0, 2}};
  fleet_cfg.modules = {"COMe-XavierAGX"};
  const auto replicas = static_cast<std::size_t>(IntegritySoakConfig::kBackends);
  fleet_cfg.min_replicas = fleet_cfg.initial_replicas = fleet_cfg.max_replicas = replicas;
  fleet_cfg.seed = cfg.seed;
  fleet_cfg.execute = true;
  fleet_cfg.robustness = &robustness;
  fleet_cfg.store = &store;
  fleet_cfg.scrub.tensors_per_tick = IntegritySoakConfig::kScrubPerTick;
  // Probation must outlast a full detection sweep, or a bad push flipping
  // bits right after commit could be misread as an SEU once the counter
  // runs out before the sweep reaches the corrupt tensor.
  fleet_cfg.ota_probation_sweeps = 2;

  SoakWorld world = recs_world(fleet_cfg, replicas, 0.0);
  fleet_cfg.sim = &world.sim;
  SoakProbe probe;
  fleet_cfg.trace = &probe.trace;
  fleet_cfg.metrics = &probe.metrics;

  Fleet fleet(fleet_cfg);

  // Detection bound from the scrub geometry: one full sweep plus two ticks
  // of slack (the fault can land just after a tick, and recovery logs on
  // the tick that scans the corrupt tensor).
  const std::size_t entries = digest_weights(model).size();
  const std::size_t sweep_ticks =
      (entries + IntegritySoakConfig::kScrubPerTick - 1) / IntegritySoakConfig::kScrubPerTick;
  const double bound_s = static_cast<double>(sweep_ticks + 2) * fleet_cfg.control_period_s;

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
    e.slot = world.slots[static_cast<std::size_t>(
        flip_rng.uniform_int(0, static_cast<std::int64_t>(world.slots.size()) - 1))];
    e.magnitude = 1.0;
    timeline.push(e);
  }

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

  // Bad push: commits cleanly, then an SEU lands inside the probation
  // window -> the whole update must roll back.
  const Graph v3 = retuned(model, 0.97f);
  fleet.submit_ota(0.70 * cfg.duration_s, safety::make_ota_package(v3));
  platform::FaultEvent probation_seu;
  probation_seu.kind = platform::FaultKind::kMemoryFault;
  probation_seu.time_s = 0.70 * cfg.duration_s + 1.5 * fleet_cfg.control_period_s;
  probation_seu.slot = world.slots.front();
  probation_seu.magnitude = 1.0;
  timeline.push(probation_seu);
  world.sim.schedule(timeline);

  // Open-loop seeded load, identical across flip rates.
  Rng load_rng(cfg.seed ^ kLoadStream);
  Submitted requests;
  double t = 0;
  std::uint64_t i = 0;
  while (true) {
    t += -std::log(1.0 - load_rng.uniform()) / cfg.arrival_hz;
    if (t >= cfg.duration_s) break;
    Request r;
    r.client = "client" + std::to_string(i % 4);
    r.arrival_s = t;
    r.deadline_s = t + load_rng.jittered(IntegritySoakConfig::kDeadlineS, 0.3);
    submit(fleet, std::move(r), requests);
    ++i;
  }

  IntegritySoakResult result;
  result.config = cfg;
  result.detection_bound_s = bound_s;
  result.report = fleet.run(cfg.duration_s);
  result.sim_describe = world.sim.describe();
  const FleetReport& report = result.report;

  // Invariants 1 + 3 (events).
  check_detection(report.events, bound_s, result);
  // A random SEU can land on a crashed module and be skipped; this soak
  // schedules no crashes, so every scheduled fault (the probation SEU
  // included) must apply.
  expect_count("applied memory faults", report.memory_faults, n_flips + 1, result.violations);
  // Invariant 2: nothing was delivered unchecked.
  expect_count("integrity checks", report.integrity_checks,
               report.completed + report.deadline_missed, result.violations);
  // Invariant 3 (end state): the healed fleet leaves no corrupt tensor.
  expect_count("corrupt tensors left unhealed", report.dirty_at_end, 0, result.violations);
  // Invariant 4: bad OTA never sticks — the one corrupted payload rejects,
  // the bad push rolls back, and all three pushes staged.
  expect_count("rejected OTA payloads", report.ota_rejected, 1, result.violations);
  expect_count("rolled-back OTA pushes", report.ota_rolled_back, 1, result.violations);
  expect_count("staged OTA payloads", report.ota_staged, 3, result.violations);

  check_fleet_run(fleet_cfg, requests, report, timeline, result.violations);
  return result;
}

}  // namespace vedliot::soak
