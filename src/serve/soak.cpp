#include "serve/soak.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "graph/zoo.hpp"
#include "obs/json.hpp"
#include "platform/baseboard.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace vedliot::serve {

namespace {

/// Independent deterministic streams: the load schedule must be identical
/// across fault rates (invariant 2 compares goodput over the same load),
/// so arrivals, the fault campaign and the simulator's transient draws
/// each get their own seed derivation.
constexpr std::uint64_t kLoadStream = 0xA11CEull;
constexpr std::uint64_t kFaultStream = 0xFA17ull;
constexpr std::uint64_t kSimStream = 0x51ull;

/// Invariant 1: a deadline miss is only legitimate when something actually
/// went wrong in the request's lifetime — a logged failure/retry on the
/// request itself, or a scheduled platform fault whose time lands in the
/// (slack-padded) admission..miss window. At fault rate zero, any miss is
/// a violation outright.
void check_deadline_invariant(const SoakConfig& cfg, const FleetReport& report,
                              const platform::FaultTimeline& timeline,
                              std::vector<std::string>& violations) {
  constexpr double kSlack = 0.25;  // scheduled vs applied fault-time skew
  std::map<std::string, double> admitted_at;
  std::map<std::string, bool> troubled;
  for (const ServeEvent& e : report.events) {
    switch (e.kind) {
      case ServeEventKind::kAdmitted:
        admitted_at.emplace(e.subject, e.time_s);
        break;
      case ServeEventKind::kTransientFault:
      case ServeEventKind::kBackendFailure:
      case ServeEventKind::kRetry:
        troubled[e.subject] = true;
        break;
      case ServeEventKind::kDeadlineMiss: {
        if (cfg.fault_rate <= 0) {
          violations.push_back("deadline miss with zero fault rate: " + e.subject + " at " +
                               std::to_string(e.time_s) + "s");
          break;
        }
        if (troubled.count(e.subject)) break;
        const auto it = admitted_at.find(e.subject);
        const double lo = (it != admitted_at.end() ? it->second : 0.0) - kSlack;
        const double hi = e.time_s + kSlack;
        const bool fault_window = std::any_of(
            timeline.events().begin(), timeline.events().end(),
            [&](const platform::FaultEvent& f) { return f.time_s >= lo && f.time_s <= hi; });
        if (!fault_window) {
          violations.push_back("deadline miss outside any fault window: " + e.subject +
                               " at " + std::to_string(e.time_s) + "s");
        }
        break;
      }
      default:
        break;
    }
  }
}

}  // namespace

void SoakProbe::close(std::span<const ServeEvent> events, std::string_view category,
                      const std::string& identity, std::vector<std::string>& violations) const {
  for (std::string& v : EventLog::check_mirror(events, category, trace, &metrics)) {
    violations.push_back(std::move(v));
  }
  if (identity.empty()) return;
  for (std::string& v : violations) v += " [" + identity + "]";
}

void check_conservation(const FleetReport& report, const std::vector<std::uint64_t>& ids,
                        std::vector<std::string>& violations) {
  if (report.responses.size() != report.offered) {
    violations.push_back("conservation: " + std::to_string(report.responses.size()) +
                         " responses for " + std::to_string(report.offered) + " offered");
    return;
  }
  const std::size_t accounted = report.completed + report.deadline_missed + report.shed +
                                report.cancelled + report.failed;
  if (accounted != report.offered) {
    violations.push_back("conservation: status counts sum to " + std::to_string(accounted) +
                         " != offered " + std::to_string(report.offered));
  }
  std::map<std::uint64_t, std::size_t> seen;
  for (const Response& r : report.responses) ++seen[r.request_id];
  for (const std::uint64_t id : ids) {
    const auto it = seen.find(id);
    if (it == seen.end() || it->second != 1) {
      violations.push_back("conservation: request " + std::to_string(id) + " has " +
                           std::to_string(it == seen.end() ? 0 : it->second) +
                           " terminal responses");
      return;  // one example is enough; the log would otherwise explode
    }
  }
}

std::string violations_json(const std::vector<std::string>& violations) {
  std::string out = ",\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i) out += ",";
    out += "\"" + obs::json_escape(violations[i]) + "\"";
  }
  return out + "]}";
}

Graph retuned(const Graph& g, float factor) {
  Graph out = g.clone();
  for (NodeId id : out.topo_order()) {
    if (out.node(id).weights.empty()) continue;
    for (float& w : out.node(id).weights.at(0).data()) w *= factor;
    out.touch();
    return out;
  }
  throw InvalidArgument("soak model has no parametric node");
}

std::string SoakResult::to_json() const {
  std::string out = "{\"record\":\"soak-serve\"";
  out += ",\"seed\":" + obs::json_number(static_cast<double>(config.seed));
  out += ",\"fault_rate\":" + obs::json_number(config.fault_rate);
  out += ",\"duration_s\":" + obs::json_number(config.duration_s);
  out += ",\"arrival_hz\":" + obs::json_number(config.arrival_hz);
  out += ",\"backends\":" + obs::json_number(static_cast<double>(config.n_backends));
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
  VEDLIOT_CHECK(cfg.arrival_hz > 0, "arrival rate must be positive");
  VEDLIOT_CHECK(cfg.n_backends >= 1 && cfg.n_backends <= 4,
                "a RECS|Box soak uses 1..4 backend modules");
  VEDLIOT_CHECK(cfg.deadline_s > 0, "deadline must be positive");
  VEDLIOT_CHECK(cfg.queue_capacity >= 1, "queue capacity must be >= 1");

  // Platform: RECS|Box with alternating Xavier/Xeon-D modules on a star
  // fabric whose hub ("switch0") is the serving ingress.
  platform::Chassis chassis((platform::recs_box()));
  std::vector<std::string> slots;
  for (int i = 0; i < cfg.n_backends; ++i) {
    const std::string slot = "come" + std::to_string(i);
    chassis.install(slot, platform::find_module(i % 2 == 0 ? "COMe-XavierAGX" : "COMe-D1577"));
    slots.push_back(slot);
  }
  platform::Fabric fabric =
      platform::star_fabric({"come0", "come1", "come2", "come3"}, 10.0, {1.0, 10.0});

  platform::PlatformSimulator::Config sim_cfg;
  sim_cfg.seed = cfg.seed ^ kSimStream;
  sim_cfg.transient_transfer_prob = 0.5 * cfg.fault_rate;
  platform::PlatformSimulator sim(std::move(chassis), std::move(fabric), sim_cfg);

  Rng fault_rng(cfg.seed ^ kFaultStream);
  const auto n_faults =
      static_cast<std::size_t>(std::lround(cfg.fault_rate * 20.0 * cfg.duration_s));
  const platform::FaultTimeline timeline =
      platform::FaultTimeline::random_campaign(slots, n_faults, cfg.duration_s, fault_rng);
  sim.schedule(timeline);

  // Quality ladder: full-precision ResNet50, then int8, then int8 with a
  // shrunken batch cap, then a small fallback model. One replica per module,
  // placed where the chassis holds it (Xavier/D1577 alternate like the
  // fleet's default module cycle).
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
  fleet_cfg.queue_capacity = cfg.queue_capacity;
  const auto replicas = static_cast<std::size_t>(cfg.n_backends);
  fleet_cfg.min_replicas = fleet_cfg.initial_replicas = fleet_cfg.max_replicas = replicas;
  fleet_cfg.seed = cfg.seed;
  fleet_cfg.sim = &sim;

  SoakProbe probe;
  fleet_cfg.trace = &probe.trace;
  fleet_cfg.metrics = &probe.metrics;

  Fleet fleet(fleet_cfg);

  // Open-loop seeded load: exponential inter-arrivals, a small high
  // priority share, jittered deadlines, an occasional batch-2 request that
  // deep brownout rungs refuse.
  Rng load_rng(cfg.seed ^ kLoadStream);
  std::vector<std::uint64_t> ids;
  double t = 0;
  std::uint64_t i = 0;
  while (true) {
    t += -std::log(1.0 - load_rng.uniform()) / cfg.arrival_hz;
    if (t >= cfg.duration_s) break;
    Request r;
    r.client = "client" + std::to_string(i % 4);
    r.priority_class =
        load_rng.chance(0.15) ? PriorityClass::kInteractive : PriorityClass::kStandard;
    r.arrival_s = t;
    r.deadline_s = t + load_rng.jittered(cfg.deadline_s, 0.5);
    r.batch = load_rng.chance(0.2) ? 2 : 1;
    r.payload = i + 1;
    ids.push_back(fleet.submit(r));
    ++i;
  }

  SoakResult result;
  result.config = cfg;
  result.report = fleet.run(cfg.duration_s);
  result.sim_describe = sim.describe();

  check_deadline_invariant(cfg, result.report, timeline, result.violations);
  if (result.report.max_queue_depth > cfg.queue_capacity) {
    result.violations.push_back("queue depth " + std::to_string(result.report.max_queue_depth) +
                                " exceeded capacity " + std::to_string(cfg.queue_capacity));
  }
  check_conservation(result.report, ids, result.violations);
  probe.close(result.report.events, "vedliot.fleet", result.sim_describe, result.violations);
  return result;
}

}  // namespace vedliot::serve
