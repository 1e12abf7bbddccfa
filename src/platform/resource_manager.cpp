#include "platform/resource_manager.hpp"

#include <algorithm>

#include "graph/cost.hpp"

namespace vedliot::platform {

Workload Workload::from_graph(const std::string& name, const Graph& g, DType dt, double rate_hz,
                              double latency_budget_s) {
  Workload w;
  w.name = name;
  const GraphCost c = graph_cost(g);
  w.ops = static_cast<double>(c.ops);
  w.traffic_bytes = graph_traffic_bytes(g, dt, dt);
  w.weight_bytes = vedliot::weight_bytes(g, dt);
  w.dtype = dt;
  w.rate_hz = rate_hz;
  w.latency_budget_s = latency_budget_s;
  return w;
}

ResourceManager::ResourceManager(const Chassis& chassis) {
  for (const auto& [slot, module] : chassis.installed()) {
    candidates_.push_back({slot, module, 0.0});
  }
}

const ResourceManager::Candidate& ResourceManager::candidate(const std::string& slot) const {
  for (const auto& c : candidates_) {
    if (c.slot == slot) return c;
  }
  throw NotFound("no candidate slot " + slot);
}

void ResourceManager::set_capacity_scale(const std::string& slot, double scale) {
  VEDLIOT_CHECK(scale > 0.0 && scale <= 1.0, "capacity scale must be in (0, 1]");
  for (auto& c : candidates_) {
    if (c.slot == slot) {
      c.scale = scale;
      return;
    }
  }
  throw NotFound("no candidate slot " + slot);
}

double ResourceManager::capacity_scale(const std::string& slot) const {
  return candidate(slot).scale;
}

double ResourceManager::utilization_headroom(const std::string& slot) const {
  const Candidate& c = candidate(slot);
  return std::max(0.0, 1.0 - c.busy);
}

std::vector<std::string> ResourceManager::slots() const {
  std::vector<std::string> out;
  for (const auto& c : candidates_) out.push_back(c.slot);
  return out;
}

std::optional<WorkloadPlacement> ResourceManager::try_place(const Workload& w, Candidate& c) const {
  hw::DeviceSpec dev = c.module.device_spec();
  if (!dev.supports(w.dtype)) return std::nullopt;
  dev.peak_gops *= c.scale;
  const hw::PerfEstimate e =
      hw::estimate_workload(dev, w.ops, w.traffic_bytes, w.weight_bytes, 1, w.dtype);
  if (e.latency_s > w.latency_budget_s) return std::nullopt;
  const double util = e.latency_s * w.rate_hz;
  if (c.busy + util > 1.0) return std::nullopt;

  WorkloadPlacement p;
  p.workload = w.name;
  p.slot = c.slot;
  p.module = c.module.name;
  p.latency_s = e.latency_s;
  p.utilization = util;
  // Duty-cycled power: active power while inferring, idle otherwise —
  // attribute only the active increment to this workload.
  p.avg_power_w = (e.power_w - dev.idle_w) * util;
  return p;
}

std::vector<WorkloadPlacement> ResourceManager::place(const std::vector<Workload>& workloads) {
  // Heaviest (ops*rate) first so big workloads get the scarce fast modules.
  std::vector<Workload> order = workloads;
  std::sort(order.begin(), order.end(), [](const Workload& a, const Workload& b) {
    return a.ops * a.rate_hz > b.ops * b.rate_hz;
  });

  std::vector<WorkloadPlacement> out;
  for (const auto& w : order) {
    Candidate* best = nullptr;
    WorkloadPlacement best_p;
    for (auto& c : candidates_) {
      auto p = try_place(w, c);
      if (!p) continue;
      if (!best || p->avg_power_w < best_p.avg_power_w) {
        best = &c;
        best_p = *p;
      }
    }
    if (!best) {
      throw PlatformError("workload " + w.name +
                          " cannot be placed (latency/utilization/precision constraints)");
    }
    best->busy += best_p.utilization;
    out.push_back(best_p);
  }
  return out;
}

std::vector<WorkloadPlacement> ResourceManager::migrate(
    const std::vector<WorkloadPlacement>& current, const std::vector<Workload>& workloads,
    const std::string& failed_slot) {
  // Drop the failed slot from the candidate set and rebuild its load state
  // from the surviving placements.
  candidates_.erase(std::remove_if(candidates_.begin(), candidates_.end(),
                                   [&](const Candidate& c) { return c.slot == failed_slot; }),
                    candidates_.end());
  for (auto& c : candidates_) c.busy = 0.0;

  std::vector<WorkloadPlacement> kept;
  std::vector<Workload> displaced;
  for (const auto& p : current) {
    if (p.slot == failed_slot) {
      auto it = std::find_if(workloads.begin(), workloads.end(),
                             [&](const Workload& w) { return w.name == p.workload; });
      VEDLIOT_CHECK(it != workloads.end(), "placement references unknown workload " + p.workload);
      displaced.push_back(*it);
    } else {
      kept.push_back(p);
      for (auto& c : candidates_) {
        if (c.slot == p.slot) c.busy += p.utilization;
      }
    }
  }
  auto moved = place(displaced);
  kept.insert(kept.end(), moved.begin(), moved.end());
  return kept;
}

double ResourceManager::total_average_power_w(const std::vector<WorkloadPlacement>& placements) {
  double total = 0;
  for (const auto& p : placements) total += p.avg_power_w;
  return total;
}

}  // namespace vedliot::platform
