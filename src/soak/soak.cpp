#include "soak/soak.hpp"

#include <algorithm>
#include <set>

#include "obs/json.hpp"
#include "platform/baseboard.hpp"
#include "util/error.hpp"

namespace vedliot::soak {

using namespace serve;

namespace {

/// Scheduled vs applied fault-time skew a deadline miss may lean on.
constexpr double kFaultSlackS = 0.25;
constexpr double kPowerEpsW = 1e-9;

/// SoakProbe::close over any tracer and registry.
void close_run(std::span<const ServeEvent> events, std::string_view category,
               const obs::Tracer& trace, const obs::MetricsRegistry* metrics,
               const std::string& identity, std::vector<std::string>& violations) {
  for (std::string& v : EventLog::check_mirror(events, category, trace, metrics)) {
    violations.push_back(std::move(v));
  }
  if (identity.empty()) return;
  for (std::string& v : violations) v += " [" + identity + "]";
}

void check_deadlines(const Submitted& requests, const FleetReport& report,
                     const platform::FaultTimeline& faults, std::vector<std::string>& violations) {
  std::set<std::string> retried;
  for (const ServeEvent& e : report.events) {
    if (e.kind == ServeEventKind::kRetry) retried.insert(e.subject);
  }
  for (const Response& r : report.responses) {
    const auto it = requests.find(r.request_id);
    if (it == requests.end()) continue;  // conservation names it
    const std::string subject = "request " + std::to_string(r.request_id);
    const Request& req = it->second;
    if (r.status == ResponseStatus::kOk && r.time_s > req.deadline_s + 1e-12) {
      violations.push_back("capacity honesty: " + subject + " marked ok at " +
                           std::to_string(r.time_s) + "s past deadline " +
                           std::to_string(req.deadline_s) + "s");
    }
    if (r.status != ResponseStatus::kLate) continue;
    // A retry excuses a miss only in a run with faults to retry around.
    if (!faults.events().empty() && retried.count(subject)) continue;
    const double lo = req.arrival_s - kFaultSlackS;
    const double hi = r.time_s + kFaultSlackS;
    const auto in_lifetime = [&](const platform::FaultEvent& f) {
      return f.time_s >= lo && f.time_s <= hi;
    };
    if (std::none_of(faults.events().begin(), faults.events().end(), in_lifetime)) {
      violations.push_back("capacity honesty: " + subject + " delivered late at " +
                           std::to_string(r.time_s) + "s outside any fault window");
    }
  }
}

void check_bounds(const FleetConfig& cfg, const FleetReport& report,
                  std::vector<std::string>& violations) {
  if (report.max_queue_depth > cfg.queue_capacity) {
    violations.push_back("bounded queues: depth " + std::to_string(report.max_queue_depth) +
                         " exceeded capacity " + std::to_string(cfg.queue_capacity));
  }
  if (report.max_replicas > cfg.max_replicas) {
    violations.push_back("replica bound: " + std::to_string(report.max_replicas) +
                         " replicas exceeded the maximum " + std::to_string(cfg.max_replicas));
  }
  for (const ServeEvent& e : report.events) {
    if (e.kind == ServeEventKind::kBatchExecuted &&
        e.value > static_cast<double>(cfg.max_batch)) {
      violations.push_back("batch honesty: " + std::to_string(e.value) + " lanes on " +
                           e.subject + " exceeded the configured cap " +
                           std::to_string(cfg.max_batch));
    }
  }
  for (const auto& sp : report.power) {
    if (sp.avg_power_w() > sp.budget_w + kPowerEpsW) {
      violations.push_back("power honesty: " + sp.replica + " at " + sp.slot + " averaged " +
                           std::to_string(sp.avg_power_w()) + " W against slot budget " +
                           std::to_string(sp.budget_w) + " W");
    }
    if (sp.avg_power_w() > sp.module_cap_w + kPowerEpsW) {
      violations.push_back("power honesty: " + sp.replica + " averaged " +
                           std::to_string(sp.avg_power_w()) + " W over its module envelope " +
                           std::to_string(sp.module_cap_w) + " W");
    }
  }
}

}  // namespace

void SoakProbe::close(std::span<const ServeEvent> events, std::string_view category,
                      const std::string& identity, std::vector<std::string>& violations) const {
  close_run(events, category, trace, &metrics, identity, violations);
}

void submit(Fleet& fleet, Request r, Submitted& requests) {
  const std::uint64_t id = fleet.submit(r);
  r.id = id;
  requests.emplace(id, std::move(r));
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

void check_fleet_run(const FleetConfig& cfg, const Submitted& requests,
                     const FleetReport& report, const platform::FaultTimeline& faults,
                     std::vector<std::string>& violations) {
  VEDLIOT_CHECK(cfg.trace != nullptr, "the fleet-run check needs the run's tracer");
  std::vector<std::uint64_t> ids;
  ids.reserve(requests.size());
  for (const auto& entry : requests) ids.push_back(entry.first);
  check_conservation(report, ids, violations);
  check_deadlines(requests, report, faults, violations);
  check_bounds(cfg, report, violations);
  close_run(report.events, "vedliot.fleet", *cfg.trace, cfg.metrics,
            cfg.sim ? cfg.sim->describe() : "", violations);
}

SoakWorld recs_world(const FleetConfig& cfg, std::size_t modules, double transient_prob) {
  VEDLIOT_CHECK(modules >= 1 && modules <= 4 && !cfg.modules.empty(),
                "a RECS|Box soak uses 1..4 modules of at least one kind");
  platform::Chassis chassis((platform::recs_box()));
  std::vector<std::string> slots;
  for (std::size_t i = 0; i < modules; ++i) {
    slots.push_back("come" + std::to_string(i));
    chassis.install(slots.back(), platform::find_module(cfg.modules[i % cfg.modules.size()]));
  }
  platform::PlatformSimulator::Config sim_cfg;
  sim_cfg.seed = cfg.seed ^ 0x51ull;
  sim_cfg.transient_transfer_prob = transient_prob;
  return SoakWorld{
      std::move(slots),
      platform::PlatformSimulator(
          std::move(chassis),
          platform::star_fabric({"come0", "come1", "come2", "come3"}, 10.0, {1.0, 10.0}),
          sim_cfg)};
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

}  // namespace vedliot::soak
