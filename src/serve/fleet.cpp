#include "serve/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "hw/perf_model.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace vedliot::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<std::int64_t> bucket_widths(std::int64_t max_batch) {
  std::vector<std::int64_t> widths;
  for (std::int64_t w = 1;; w *= 2) {
    widths.push_back(w);
    if (w >= max_batch) break;
  }
  return widths;
}

/// Default brownout rungs: the full batch cap, halved per rung down to 1.
std::vector<BrownoutStep> default_ladder(std::int64_t max_batch) {
  std::vector<BrownoutStep> steps;
  for (std::int64_t cap = bucket_widths(max_batch).back();; cap /= 2) {
    steps.emplace_back(0, cap);
    if (cap <= 1) break;
  }
  return steps;
}

}  // namespace

Tensor synthesize_input(const Graph& graph, std::uint64_t seed, const Request& r) {
  const Shape& in_shape = graph.node(graph.inputs().front()).out_shape;
  const std::uint64_t handle = r.payload != 0 ? r.payload : r.id;
  Rng in_rng(seed ^ (handle * 0x9E3779B97F4A7C15ull));
  std::vector<std::int64_t> dims(in_shape.dims().begin(), in_shape.dims().end());
  dims[0] = r.batch;
  const Shape shape(dims);
  return Tensor(shape, in_rng.normal_vector(static_cast<std::size_t>(shape.numel())));
}

double FleetReport::goodput() const {
  return offered == 0 ? 0.0 : static_cast<double>(completed) / static_cast<double>(offered);
}

std::string FleetReport::to_json() const {
  const auto num = [](auto v) { return obs::json_number(static_cast<double>(v)); };
  std::string out = "{\"record\":\"fleet\"";
  out += ",\"offered\":" + num(offered);
  out += ",\"admitted\":" + num(admitted);
  out += ",\"shed\":" + num(shed);
  out += ",\"displaced\":" + num(displaced);
  out += ",\"cache_hits\":" + num(cache_hits);
  out += ",\"completed\":" + num(completed);
  out += ",\"deadline_missed\":" + num(deadline_missed);
  out += ",\"cancelled\":" + num(cancelled);
  out += ",\"batches\":" + num(batches);
  out += ",\"lanes\":" + num(lanes);
  out += ",\"padded_lanes\":" + num(padded_lanes);
  out += ",\"max_queue_depth\":" + num(max_queue_depth);
  out += ",\"scale_ups\":" + num(scale_ups);
  out += ",\"scale_downs\":" + num(scale_downs);
  out += ",\"max_replicas\":" + num(max_replicas);
  out += ",\"final_replicas\":" + num(final_replicas);
  out += ",\"max_brownout_level\":" + num(max_brownout_level);
  out += ",\"final_brownout_level\":" + num(final_brownout_level);
  out += ",\"busy_s\":" + obs::json_number(busy_s);
  out += ",\"energy_j\":" + obs::json_number(energy_j);
  out += ",\"goodput\":" + obs::json_number(goodput());
  out += ",\"events\":" + num(events.size());
  out += ",\"events_fnv1a\":\"" + event_digest(events) + "\"";
  out += ",\"power\":[";
  for (std::size_t i = 0; i < power.size(); ++i) {
    if (i) out += ",";
    out += "{\"replica\":\"" + obs::json_escape(power[i].replica) + "\"";
    out += ",\"slot\":\"" + obs::json_escape(power[i].slot) + "\"";
    out += ",\"budget_w\":" + obs::json_number(power[i].budget_w);
    out += ",\"module_cap_w\":" + obs::json_number(power[i].module_cap_w);
    out += ",\"busy_s\":" + obs::json_number(power[i].busy_s);
    out += ",\"avg_power_w\":" + obs::json_number(power[i].avg_power_w()) + "}";
  }
  out += "]}";
  return out;
}

Fleet::Fleet(FleetConfig config)
    : cfg_(std::move(config)),
      placement_({cfg_.board, cfg_.modules}),
      ring_(cfg_.ring_vnodes),
      cache_(cfg_.cache_capacity),
      ladder_(cfg_.brownout,
              cfg_.ladder.empty() ? default_ladder(cfg_.max_batch) : cfg_.ladder),
      rng_(cfg_.seed),
      log_("vedliot.fleet", cfg_.trace, cfg_.metrics) {
  VEDLIOT_CHECK(cfg_.graph != nullptr, "fleet needs a deployment graph");
  VEDLIOT_CHECK(cfg_.graph->inputs().size() == 1 && cfg_.graph->outputs().size() == 1,
                "fleet serves a single-input single-output graph");
  VEDLIOT_CHECK(cfg_.max_batch >= 1, "fleet max_batch must be >= 1");
  VEDLIOT_CHECK(cfg_.min_replicas >= 1, "fleet needs at least one replica");
  VEDLIOT_CHECK(cfg_.min_replicas <= cfg_.initial_replicas &&
                    cfg_.initial_replicas <= cfg_.max_replicas,
                "replica bounds must satisfy min <= initial <= max");
  VEDLIOT_CHECK(cfg_.queue_capacity >= 1, "queue capacity must be >= 1");
  VEDLIOT_CHECK(cfg_.batch_window_s >= 0, "batch window must be >= 0");
  VEDLIOT_CHECK(cfg_.control_period_s > 0, "control period must be positive");
  VEDLIOT_CHECK(cfg_.scale_down_depth < cfg_.scale_up_depth,
                "scale-down watermark must sit below scale-up");

  widths_ = bucket_widths(cfg_.max_batch);

  // Analytic service model: latency/power per module kind per bucket width,
  // from the roofline estimate over a rebatched clone. Execute mode runs
  // real tensors but keeps this simulated clock, so wall-clock speed never
  // leaks into the event schedule.
  for (const std::string& name : cfg_.modules) {
    if (perf_.count(name)) continue;
    const platform::MicroserverModule& m = platform::find_module(name);
    auto& per_width = perf_[name];
    for (const std::int64_t w : widths_) {
      const Graph gw = rebatched(*cfg_.graph, w);
      const hw::PerfEstimate est = hw::estimate(m.device_spec(), gw, cfg_.dtype);
      per_width[w] = {est.latency_s, est.power_w};
    }
  }

  // Capacity weights for the routing ring: a module's share of traffic is
  // proportional to its analytic throughput at the widest bucket. Without
  // this, an even hash split across a heterogeneous fleet drowns the slow
  // module and adding a replica can lower goodput.
  double best_tput = 0.0;
  for (const auto& [name, per_width] : perf_) {
    const std::int64_t widest = widths_.back();
    module_weight_[name] = static_cast<double>(widest) / per_width.at(widest).first;
    best_tput = std::max(best_tput, module_weight_[name]);
  }
  for (auto& [name, weight] : module_weight_) weight /= best_tput;
}

Fleet::~Fleet() = default;

const runtime::ExecConfig& Fleet::rung_exec() const { return ladder_.current().exec; }

std::int64_t Fleet::bucket_width(std::int64_t lanes) const {
  for (const std::int64_t w : widths_) {
    if (w >= lanes) return w;
  }
  throw InvalidArgument("no bucket for " + std::to_string(lanes) + " lanes");
}

std::int64_t Fleet::effective_max_batch() const {
  const std::int64_t cap = rung_exec().max_batch;
  std::int64_t widest = 0;
  for (const std::int64_t w : widths_) {
    if (cap > 0 && w > cap) break;
    widest = w;
  }
  return std::max<std::int64_t>(widest, 1);
}

double Fleet::latency_s(const Replica& rep, std::int64_t width) const {
  const std::string& module = placement_.placement_of(rep.name).module;
  return perf_.at(module).at(width).first;
}

double Fleet::power_w(const Replica& rep, std::int64_t width) const {
  const std::string& module = placement_.placement_of(rep.name).module;
  return perf_.at(module).at(width).second;
}

Fleet::Replica& Fleet::replica_of(const std::string& name) {
  for (Replica& rep : fleet_) {
    if (rep.name == name) return rep;
  }
  throw NotFound("no replica named " + name);
}

DynamicBatcher& Fleet::batcher(const std::string& replica) const {
  for (const Replica& rep : fleet_) {
    if (rep.name == replica) {
      VEDLIOT_CHECK(rep.batcher != nullptr, "replica has no batcher (analytic mode)");
      return *rep.batcher;
    }
  }
  throw NotFound("no replica named " + replica);
}

std::size_t Fleet::add_replica(double t) {
  (void)t;
  const std::string name = "replica" + std::to_string(next_replica_++);
  // Throws if no chassis slot can power the module; the module kind the
  // chassis admitted sets the replica's routing weight.
  const platform::Placement at = placement_.place(name);
  ring_.add(name, module_weight_.at(at.module));
  Replica rep;
  rep.name = name;
  rep.queue = std::make_unique<AdmissionQueue>(QueueConfig{cfg_.queue_capacity});
  if (cfg_.execute) {
    DynamicBatcher::Config bc;
    bc.max_batch = cfg_.max_batch;
    bc.exec = rung_exec();
    bc.quantized = cfg_.quantized;
    rep.batcher = std::make_unique<DynamicBatcher>(*cfg_.graph, bc);
  }
  fleet_.push_back(std::move(rep));
  ++active_;
  report_.max_replicas = std::max(report_.max_replicas, active_);
  return fleet_.size() - 1;
}

void Fleet::drain_replica(double t, std::size_t idx) {
  Replica& rep = fleet_[idx];
  VEDLIOT_CHECK(!rep.retired && rep.queue->empty() && rep.busy_until_s <= t,
                "only an idle, empty replica can drain");
  // Snapshot its power accounting before the slot releases — the honesty
  // check covers every replica that ever ran, not just survivors.
  for (auto& sp : placement_.power_report()) {
    if (sp.replica == rep.name) report_.power.push_back(std::move(sp));
  }
  ring_.remove(rep.name);
  placement_.release(rep.name);
  rep.retired = true;
  rep.batcher.reset();
  --active_;
}

std::uint64_t Fleet::submit(Request r) {
  VEDLIOT_CHECK(!ran_, "submit all requests before run()");
  if (r.version != kServeApiVersion) {
    throw InvalidArgument("request wire version " + std::to_string(r.version) +
                          " != " + std::to_string(kServeApiVersion));
  }
  VEDLIOT_CHECK(!r.client.empty(), "request needs a client key");
  VEDLIOT_CHECK(r.arrival_s >= 0, "arrival must be >= 0");
  VEDLIOT_CHECK(r.deadline_s > r.arrival_s, "deadline must be after arrival");
  VEDLIOT_CHECK(r.batch >= 1, "request batch must be >= 1");
  if (r.id == 0) {
    r.id = next_id_++;
  } else {
    VEDLIOT_CHECK(!requests_.count(r.id), "duplicate request id");
    next_id_ = std::max(next_id_, r.id + 1);
  }
  const std::uint64_t id = r.id;
  requests_.emplace(id, r);
  arrivals_.push_back(std::move(r));
  return id;
}

void Fleet::finish_response(double t, Response r) {
  const Request& req = requests_.at(r.request_id);
  switch (r.status) {
    case ResponseStatus::kOk:
      ++report_.completed;
      if (!r.cache_hit) {
        log_.add(t, ServeEventKind::kCompleted, "request " + std::to_string(r.request_id),
                 "served by " + r.served_by, r.latency_s);
      }
      if (!req.idempotency_key.empty()) cache_.put(req.idempotency_key, r);
      break;
    case ResponseStatus::kLate:
      ++report_.deadline_missed;
      log_.add(t, ServeEventKind::kDeadlineMiss, "request " + std::to_string(r.request_id),
               "served by " + r.served_by, r.latency_s);
      break;
    case ResponseStatus::kShed:
      ++report_.shed;
      break;
    case ResponseStatus::kCancelled:
      ++report_.cancelled;
      break;
    case ResponseStatus::kFailed:
      break;  // unreachable: the fleet injects no faults
  }
  responses_.emplace(r.request_id, std::move(r));
}

void Fleet::admit(double t, const Request& r) {
  const std::string subject = "request " + std::to_string(r.id);

  if (!r.idempotency_key.empty()) {
    if (auto hit = cache_.get(r.idempotency_key)) {
      Response resp = *hit;
      resp.request_id = r.id;
      resp.time_s = t;
      resp.latency_s = 0;
      resp.cache_hit = true;
      resp.status = ResponseStatus::kOk;
      ++report_.cache_hits;
      log_.add(t, ServeEventKind::kCacheHit, subject, "key '" + r.idempotency_key + "'");
      finish_response(t, std::move(resp));
      return;
    }
  }

  if (r.batch > effective_max_batch()) {
    Response resp;
    resp.request_id = r.id;
    resp.status = ResponseStatus::kShed;
    resp.time_s = t;
    log_.add(t, ServeEventKind::kShed, subject,
             "batch " + std::to_string(r.batch) + " exceeds live cap " +
                 std::to_string(effective_max_batch()));
    finish_response(t, std::move(resp));
    return;
  }

  const std::string& name = ring_.route(r.client);
  Replica& rep = replica_of(name);
  const auto idx = static_cast<std::size_t>(&rep - fleet_.data());

  if (rep.queue->full()) {
    if (auto victim = rep.queue->displace(r.priority())) {
      ++report_.displaced;
      Response evicted;
      evicted.request_id = victim->id;
      evicted.status = ResponseStatus::kShed;
      evicted.time_s = t;
      log_.add(t, ServeEventKind::kDisplaced, "request " + std::to_string(victim->id),
               "displaced by " + subject + " on " + name);
      finish_response(t, std::move(evicted));
    } else {
      Response resp;
      resp.request_id = r.id;
      resp.status = ResponseStatus::kShed;
      resp.time_s = t;
      log_.add(t, ServeEventKind::kShed, subject, "queue full on " + name);
      finish_response(t, std::move(resp));
      return;
    }
  }

  rep.queue->push(Ticket{r.id, r.priority(), r.deadline_s, 0, t});
  ++report_.admitted;
  report_.max_queue_depth = std::max(report_.max_queue_depth, rep.queue->depth());
  log_.add(t, ServeEventKind::kAdmitted, subject,
           std::string(priority_class_name(r.priority_class)) + " from " + r.client + " -> " +
               name);
  try_dispatch(t, idx);
}

void Fleet::try_dispatch(double t, std::size_t idx) {
  Replica& rep = fleet_[idx];
  if (rep.retired || rep.busy_until_s > t) return;

  for (const Ticket& dead : rep.queue->expire(t)) {
    Response resp;
    resp.request_id = dead.id;
    resp.status = ResponseStatus::kCancelled;
    resp.time_s = t;
    resp.latency_s = t - requests_.at(dead.id).arrival_s;
    log_.add(t, ServeEventKind::kCancelled, "request " + std::to_string(dead.id),
             "deadline passed in queue on " + rep.name);
    finish_response(t, std::move(resp));
  }
  if (rep.queue->empty()) {
    rep.window_close_s.reset();
    return;
  }

  const std::int64_t cap = effective_max_batch();
  std::int64_t waiting = 0;
  for (const Ticket& tk : rep.queue->tickets()) waiting += requests_.at(tk.id).batch;

  if (waiting < cap && !(rep.window_close_s && t >= *rep.window_close_s)) {
    // Not enough lanes yet: open (or keep) a short coalescing window so a
    // near-simultaneous arrival can share the batch.
    if (!rep.window_close_s) rep.window_close_s = t + cfg_.batch_window_s;
    return;
  }

  std::vector<Ticket> group;
  std::int64_t lanes = 0;
  while (auto tk = rep.queue->pop(t)) {
    const std::int64_t b = requests_.at(tk->id).batch;
    if (b > cap) {
      // Admitted under a wider cap that has since browned out.
      Response resp;
      resp.request_id = tk->id;
      resp.status = ResponseStatus::kCancelled;
      resp.time_s = t;
      resp.latency_s = t - requests_.at(tk->id).arrival_s;
      log_.add(t, ServeEventKind::kCancelled, "request " + std::to_string(tk->id),
               "batch " + std::to_string(b) + " exceeds degraded cap " + std::to_string(cap));
      finish_response(t, std::move(resp));
      continue;
    }
    if (lanes + b > cap) {
      rep.queue->push(*tk);  // does not fit this batch; next batch takes it
      break;
    }
    group.push_back(*tk);
    lanes += b;
  }
  rep.window_close_s.reset();
  if (group.empty()) return;  // everything expired or over-cap
  launch(t, idx, std::move(group));
}

void Fleet::launch(double t, std::size_t idx, std::vector<Ticket> group) {
  Replica& rep = fleet_[idx];

  // Feasibility pruning: drop members whose deadline the batch's own
  // latency would bust — the estimate shrinks as the bucket shrinks, so
  // this converges (and makes a delivered-late response structurally
  // impossible: the capacity-honest deadline invariant).
  double lat = 0;
  std::int64_t lanes = 0;
  while (true) {
    lanes = 0;
    for (const Ticket& tk : group) lanes += requests_.at(tk.id).batch;
    if (lanes == 0) break;
    lat = latency_s(rep, bucket_width(lanes));
    const auto first_bad = std::stable_partition(
        group.begin(), group.end(), [&](const Ticket& tk) { return t + lat <= tk.deadline_s; });
    if (first_bad == group.end()) break;
    for (auto it = first_bad; it != group.end(); ++it) {
      Response resp;
      resp.request_id = it->id;
      resp.status = ResponseStatus::kCancelled;
      resp.time_s = t;
      resp.latency_s = t - requests_.at(it->id).arrival_s;
      log_.add(t, ServeEventKind::kCancelled, "request " + std::to_string(it->id),
               "infeasible at dispatch on " + rep.name + " (batch latency " + std::to_string(lat) +
                   "s)");
      finish_response(t, std::move(resp));
    }
    group.erase(first_bad, group.end());
  }
  if (group.empty()) {
    try_dispatch(t, idx);  // the queue may still hold a feasible next batch
    return;
  }

  const std::int64_t width = bucket_width(lanes);
  const double finish = t + lat;
  const double watts = power_w(rep, width);
  const platform::Placement& at = placement_.placement_of(rep.name);
  const std::string served_by =
      rep.name + "/box" + std::to_string(at.chassis) + "/" + at.slot;

  // Execute mode: synthesize each member's input from its payload handle
  // and run the coalesced group through the bucket sessions for real.
  std::vector<std::uint32_t> crcs(group.size(), 0);
  if (cfg_.execute) {
    std::vector<Tensor> inputs;
    inputs.reserve(group.size());
    for (const Ticket& tk : group) {
      inputs.push_back(synthesize_input(*cfg_.graph, cfg_.seed, requests_.at(tk.id)));
    }
    const std::vector<Tensor> outputs = rep.batcher->run(inputs);
    for (std::size_t i = 0; i < outputs.size(); ++i) crcs[i] = util::crc32(outputs[i].data());
  }

  PendingBatch batch;
  batch.finish_s = finish;
  batch.replica = idx;
  for (std::size_t i = 0; i < group.size(); ++i) {
    const Request& req = requests_.at(group[i].id);
    Response resp;
    resp.request_id = req.id;
    resp.status = finish <= req.deadline_s ? ResponseStatus::kOk : ResponseStatus::kLate;
    resp.time_s = finish;
    resp.latency_s = finish - req.arrival_s;
    resp.served_by = served_by;
    resp.degraded = ladder_.level() > 0;
    resp.output_crc32 = crcs[i];
    batch.responses.push_back(std::move(resp));
    log_.add(t, ServeEventKind::kDispatched, "request " + std::to_string(req.id),
             rep.name + " bucket " + std::to_string(width));
  }
  log_.add(t, ServeEventKind::kBatchExecuted, rep.name,
           std::to_string(group.size()) + " requests, " + std::to_string(lanes) +
               " lanes, bucket " + std::to_string(width),
           static_cast<double>(lanes));
  ++report_.batches;
  report_.lanes += static_cast<std::size_t>(lanes);
  report_.padded_lanes += static_cast<std::size_t>(width - lanes);
  report_.busy_s += lat;
  report_.energy_j += watts * lat;
  placement_.meter(rep.name, watts * lat, lat);

  rep.busy_until_s = finish;
  const auto pos = std::upper_bound(
      in_flight_.begin(), in_flight_.end(), batch,
      [](const PendingBatch& a, const PendingBatch& b) { return a.finish_s < b.finish_s; });
  in_flight_.insert(pos, std::move(batch));
}

void Fleet::apply_brownout(double t, int delta) {
  const int level = ladder_.level();
  report_.max_brownout_level = std::max(report_.max_brownout_level, level);
  log_.add(t, delta > 0 ? ServeEventKind::kBrownoutDown : ServeEventKind::kBrownoutUp, "fleet",
           "batch cap now " + std::to_string(effective_max_batch()), level);
  if (!cfg_.execute) return;
  // The shrink must be enforced by the runtime, not fleet bookkeeping:
  // forward the rung's envelope through every bucket session's
  // set_exec_config (buckets wider than the cap then refuse their feeds).
  for (Replica& rep : fleet_) {
    if (!rep.retired && rep.batcher) rep.batcher->set_exec_config(rung_exec());
  }
}

void Fleet::control_tick(double t) {
  std::size_t depth = 0;
  for (const Replica& rep : fleet_) {
    if (!rep.retired) depth += rep.queue->depth();
  }
  const double per_replica = static_cast<double>(depth) / static_cast<double>(active_);

  const double load =
      static_cast<double>(depth) /
      (static_cast<double>(active_) * static_cast<double>(cfg_.queue_capacity));
  if (const int delta = ladder_.observe(load)) apply_brownout(t, delta);

  if (per_replica > cfg_.scale_up_depth && active_ < cfg_.max_replicas) {
    const std::size_t idx = add_replica(t);
    ++report_.scale_ups;
    log_.add(t, ServeEventKind::kScaleUp, fleet_[idx].name,
             "mean queue depth " + std::to_string(per_replica), static_cast<double>(active_));
  } else if (per_replica < cfg_.scale_down_depth && active_ > cfg_.min_replicas) {
    // Drain the youngest idle, empty replica; if every replica is mid-work
    // or holding tickets, skip this tick rather than strand queued work.
    for (std::size_t i = fleet_.size(); i-- > 0;) {
      Replica& rep = fleet_[i];
      if (rep.retired || !rep.queue->empty() || rep.busy_until_s > t) continue;
      const std::string name = rep.name;
      drain_replica(t, i);
      ++report_.scale_downs;
      log_.add(t, ServeEventKind::kScaleDown, name,
               "mean queue depth " + std::to_string(per_replica), static_cast<double>(active_));
      break;
    }
  }
}

FleetReport Fleet::run(double duration_s) {
  VEDLIOT_CHECK(!ran_, "a Fleet runs once");
  VEDLIOT_CHECK(duration_s > 0, "fleet run duration must be positive");
  ran_ = true;

  std::stable_sort(arrivals_.begin(), arrivals_.end(), [](const Request& a, const Request& b) {
    return a.arrival_s != b.arrival_s ? a.arrival_s < b.arrival_s : a.id < b.id;
  });
  report_.offered = arrivals_.size();

  for (std::size_t i = 0; i < cfg_.initial_replicas; ++i) add_replica(0.0);

  std::size_t next_arrival = 0;
  double next_control = cfg_.control_period_s;
  while (true) {
    const double t_batch = in_flight_.empty() ? kInf : in_flight_.front().finish_s;
    double t_window = kInf;
    for (const Replica& rep : fleet_) {
      if (!rep.retired && rep.window_close_s) t_window = std::min(t_window, *rep.window_close_s);
    }
    const double t_arrival =
        next_arrival < arrivals_.size() ? arrivals_[next_arrival].arrival_s : kInf;
    const double t_control = next_control <= duration_s ? next_control : kInf;

    const double t = std::min({t_batch, t_window, t_arrival, t_control});
    if (t == kInf) break;  // drained: every request reached a terminal state

    // Fixed tie order keeps runs bitwise deterministic: completions free
    // capacity first, then windows close, then arrivals land, then the
    // control loop observes the settled state.
    if (t_batch == t) {
      PendingBatch batch = std::move(in_flight_.front());
      in_flight_.erase(in_flight_.begin());
      for (Response& r : batch.responses) finish_response(t, std::move(r));
      try_dispatch(t, batch.replica);
    } else if (t_window == t) {
      for (std::size_t i = 0; i < fleet_.size(); ++i) {
        const Replica& rep = fleet_[i];
        if (!rep.retired && rep.window_close_s && *rep.window_close_s <= t) try_dispatch(t, i);
      }
    } else if (t_arrival == t) {
      const Request& r = arrivals_[next_arrival++];
      admit(t, r);
    } else {
      control_tick(t);
      next_control += cfg_.control_period_s;
    }
  }

  report_.events = log_.take();
  report_.final_replicas = active_;
  report_.final_brownout_level = ladder_.level();
  for (auto& sp : placement_.power_report()) report_.power.push_back(std::move(sp));

  report_.responses.reserve(responses_.size());
  for (auto& [id, resp] : responses_) {
    (void)id;
    report_.responses.push_back(resp);
  }
  return report_;
}

}  // namespace vedliot::serve
