#include "soak/chaos_soak.hpp"

#include <cmath>

#include "graph/zoo.hpp"
#include "obs/json.hpp"
#include "soak/soak.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace vedliot::soak {

using namespace serve;

namespace {

/// Independent deterministic streams: the load schedule must be identical
/// across fault rates (invariant 2 compares goodput over the same load),
/// so arrivals, the fault campaign and the simulator's transient draws
/// (recs_world) each get their own seed derivation.
constexpr std::uint64_t kLoadStream = 0xA11CEull;
constexpr std::uint64_t kFaultStream = 0xFA17ull;

}  // namespace

std::string SoakResult::to_json() const {
  std::string out = "{\"record\":\"soak-serve\"";
  out += ",\"seed\":" + obs::json_number(static_cast<double>(config.seed));
  out += ",\"fault_rate\":" + obs::json_number(config.fault_rate);
  out += ",\"duration_s\":" + obs::json_number(config.duration_s);
  out += ",\"arrival_hz\":" + obs::json_number(SoakConfig::kArrivalHz);
  out += ",\"backends\":" + obs::json_number(static_cast<double>(SoakConfig::kBackends));
  out += ",\"offered\":" + obs::json_number(static_cast<double>(report.offered));
  out += ",\"completed\":" + obs::json_number(static_cast<double>(report.completed));
  out += ",\"shed\":" + obs::json_number(static_cast<double>(report.shed));
  out += ",\"deadline_missed\":" + obs::json_number(static_cast<double>(report.deadline_missed));
  out += ",\"cancelled\":" + obs::json_number(static_cast<double>(report.cancelled));
  out += ",\"failed\":" + obs::json_number(static_cast<double>(report.failed));
  out += ",\"retries\":" + obs::json_number(static_cast<double>(report.retries));
  out += ",\"max_queue_depth\":" + obs::json_number(static_cast<double>(report.max_queue_depth));
  out +=
      ",\"max_brownout_level\":" + obs::json_number(static_cast<double>(report.max_brownout_level));
  out += ",\"goodput\":" + obs::json_number(report.goodput());
  out += ",\"events\":" + obs::json_number(static_cast<double>(report.events.size()));
  out += ",\"events_fnv1a\":\"" + event_digest(report.events) + "\"";
  out += ",\"sim\":\"" + obs::json_escape(sim_describe) + "\"";
  return out + violations_json(violations);
}

SoakResult run_soak(const SoakConfig& cfg) {
  VEDLIOT_CHECK(cfg.duration_s > 0, "soak duration must be positive");
  VEDLIOT_CHECK(cfg.fault_rate >= 0, "fault rate must be >= 0");

  // Quality ladder: full-precision ResNet50, then int8, then int8 with a
  // shrunken batch cap, then a small fallback model. One replica per module
  // of a RECS|Box with Xavier/D1577 alternating (the fleet's default module
  // cycle), each placed where the chassis holds it.
  const Graph fp32 = zoo::resnet50(1, 100, 64);
  const Graph fallback = zoo::mobilenet_v3_large(1, 100, 64);
  FleetConfig fleet_cfg;
  fleet_cfg.graph = &fp32;
  fleet_cfg.variants = {ModelVariant{"resnet50-fp32", &fp32, DType::kFP32, false},
                        ModelVariant{"resnet50-int8", &fp32, DType::kINT8, false},
                        ModelVariant{"mobilenetv3-int8", &fallback, DType::kINT8, false}};
  fleet_cfg.max_batch = 4;
  fleet_cfg.ladder = {BrownoutStep{0, 4}, BrownoutStep{1, 4}, BrownoutStep{1, 2},
                      BrownoutStep{2, 1}};
  fleet_cfg.queue_capacity = SoakConfig::kQueueCapacity;
  const auto replicas = static_cast<std::size_t>(SoakConfig::kBackends);
  fleet_cfg.min_replicas = fleet_cfg.initial_replicas = fleet_cfg.max_replicas = replicas;
  fleet_cfg.seed = cfg.seed;

  SoakWorld world = recs_world(fleet_cfg, replicas, 0.5 * cfg.fault_rate);
  Rng fault_rng(cfg.seed ^ kFaultStream);
  const auto n_faults =
      static_cast<std::size_t>(std::lround(cfg.fault_rate * 20.0 * cfg.duration_s));
  const platform::FaultTimeline timeline =
      platform::FaultTimeline::random_campaign(world.slots, n_faults, cfg.duration_s, fault_rng);
  world.sim.schedule(timeline);
  fleet_cfg.sim = &world.sim;

  SoakProbe probe;
  fleet_cfg.trace = &probe.trace;
  fleet_cfg.metrics = &probe.metrics;

  Fleet fleet(fleet_cfg);

  // Open-loop seeded load: exponential inter-arrivals, a small high
  // priority share, jittered deadlines, an occasional batch-2 request that
  // deep brownout rungs refuse.
  Rng load_rng(cfg.seed ^ kLoadStream);
  Submitted requests;
  double t = 0;
  std::uint64_t i = 0;
  while (true) {
    t += -std::log(1.0 - load_rng.uniform()) / SoakConfig::kArrivalHz;
    if (t >= cfg.duration_s) break;
    Request r;
    r.client = "client" + std::to_string(i % 4);
    r.priority_class =
        load_rng.chance(0.15) ? PriorityClass::kInteractive : PriorityClass::kStandard;
    r.arrival_s = t;
    r.deadline_s = t + load_rng.jittered(SoakConfig::kDeadlineS, 0.5);
    r.batch = load_rng.chance(0.2) ? 2 : 1;
    r.payload = i + 1;
    submit(fleet, std::move(r), requests);
    ++i;
  }

  SoakResult result;
  result.config = cfg;
  result.report = fleet.run(cfg.duration_s);
  result.sim_describe = world.sim.describe();
  check_fleet_run(fleet_cfg, requests, result.report, timeline, result.violations);
  return result;
}

}  // namespace vedliot::soak
