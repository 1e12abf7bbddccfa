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

// Fault-policy constants: no caller tunes them.
constexpr char kIngress[] = "switch0";  ///< fabric hub requests enter and leave by
constexpr double kRetryTokenCap = 8.0;   ///< per-client retry bucket ceiling
constexpr double kBackoffBaseS = 2e-3;   ///< full-jitter backoff (Rng::backoff_s)
constexpr double kBackoffCapS = 20e-3;

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
      placement_({cfg_.sim ? cfg_.sim->chassis().spec() : platform::recs_box(), cfg_.modules}),
      ring_(FleetConfig::kRingVnodes),
      cache_(FleetConfig::kCacheCapacity),
      ladder_(cfg_.brownout,
              cfg_.ladder.empty() ? default_ladder(cfg_.max_batch) : cfg_.ladder),
      rng_(cfg_.seed),
      fault_rng_(cfg_.seed ^ 0xB17F11Bull),
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

  if (cfg_.variants.empty()) cfg_.variants.push_back({cfg_.graph->name(), cfg_.graph});
  VEDLIOT_CHECK(cfg_.variants.front().graph == cfg_.graph,
                "variants[0] is the healthy model and must name FleetConfig::graph");
  for (const BrownoutStep& step : ladder_.steps()) {
    VEDLIOT_CHECK(step.variant < cfg_.variants.size(), "ladder rung names an unknown variant");
    VEDLIOT_CHECK(cfg_.variants[step.variant].graph != nullptr, "model variant needs a graph");
  }
  VEDLIOT_CHECK(cfg_.variants.size() == 1 || (!cfg_.execute && !cfg_.store),
                "execute and integrity mode serve one model variant");
  VEDLIOT_CHECK(cfg_.retry_tokens_per_request >= 0, "retry token rate must be >= 0");
  VEDLIOT_CHECK(!cfg_.sim || (cfg_.min_replicas == cfg_.initial_replicas &&
                              cfg_.initial_replicas == cfg_.max_replicas),
                "a fleet on a simulated chassis runs a fixed replica set");
  if (cfg_.store) {
    VEDLIOT_CHECK(cfg_.sim != nullptr, "integrity mode runs on a simulated chassis (sim)");
    VEDLIOT_CHECK(cfg_.graph->weights_materialized(), "integrity mode needs materialized weights");
    const std::string& name = cfg_.variants.front().name;
    if (!cfg_.store->has(name)) cfg_.store->install(name, *cfg_.graph);
  }

  widths_ = bucket_widths(cfg_.max_batch);
  for (const std::string& name : cfg_.modules) {
    if (std::find(kinds_.begin(), kinds_.end(), name) == kinds_.end()) kinds_.push_back(name);
  }

  // Analytic service model: latency/power per variant per module kind per
  // bucket width, from the roofline estimate over a rebatched clone.
  // Execute mode runs real tensors but keeps this simulated clock, so
  // wall-clock speed never leaks into the event schedule.
  perf_.resize(cfg_.variants.size());
  for (std::size_t v = 0; v < cfg_.variants.size(); ++v) {
    const ModelVariant& variant = cfg_.variants[v];
    perf_[v].assign(kinds_.size(), std::vector<Cost>(widths_.size()));
    for (std::size_t b = 0; b < widths_.size(); ++b) {
      const Graph gw = rebatched(*variant.graph, widths_[b]);
      for (std::size_t k = 0; k < kinds_.size(); ++k) {
        const hw::PerfEstimate est =
            hw::estimate(platform::find_module(kinds_[k]).device_spec(), gw, variant.dtype);
        perf_[v][k][b] = {est.latency_s, est.power_w};
      }
    }
  }

  // Capacity weights for the routing ring: a module's share of traffic is
  // proportional to its analytic throughput at the widest bucket of the
  // healthy model. Without this, an even hash split across a heterogeneous
  // fleet drowns the slow module and adding a replica can lower goodput.
  double best_tput = 0.0;
  for (std::size_t k = 0; k < kinds_.size(); ++k) {
    kind_weight_.push_back(static_cast<double>(widths_.back()) /
                           perf_[0][k].back().latency_s);
    best_tput = std::max(best_tput, kind_weight_.back());
  }
  for (double& weight : kind_weight_) weight /= best_tput;
}

Fleet::~Fleet() = default;

const runtime::ExecConfig& Fleet::rung_exec() const { return ladder_.current().exec; }

std::int64_t Fleet::effective_max_batch() const {
  return widest_bucket(widths_, rung_exec().max_batch);
}

double Fleet::surcharge_s(const Request& r) const {
  if (cfg_.tenant_cost_s.empty()) return 0.0;
  const auto it = cfg_.tenant_cost_s.find(r.client);
  return it == cfg_.tenant_cost_s.end() ? 0.0 : it->second;
}

std::string Fleet::variant_tag() const {
  if (cfg_.variants.size() == 1) return {};
  return " (" + cfg_.variants[ladder_.current().variant].name + ")";
}

std::size_t Fleet::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    if (fleet_[i].name == name) return i;
  }
  throw NotFound("no replica named " + name);
}

std::size_t Fleet::add_replica() {
  const std::string name = "replica" + std::to_string(next_replica_++);
  // Throws if no chassis slot can power the module; the module kind the
  // chassis admitted sets the replica's routing weight.
  const platform::Placement at = placement_.place(name);
  if (cfg_.sim) {
    const platform::Chassis& box = cfg_.sim->chassis();
    VEDLIOT_CHECK(at.chassis == 0 && box.occupied(at.slot) &&
                      box.module_at(at.slot).name == at.module,
                  "the simulated chassis must hold " + at.module + " in slot " + at.slot +
                      " for " + name);
  }
  Replica rep;
  rep.name = name;
  rep.slot = at.slot;
  rep.served_by = name + "/box" + std::to_string(at.chassis) + "/" + at.slot;
  if (cfg_.sim) rep.tag = " on " + at.slot;
  rep.kind = static_cast<std::size_t>(std::find(kinds_.begin(), kinds_.end(), at.module) -
                                      kinds_.begin());
  ring_.add(name, kind_weight_.at(rep.kind));
  rep.queue = std::make_unique<AdmissionQueue>(QueueConfig{cfg_.queue_capacity});
  rep.breaker = CircuitBreaker(cfg_.breaker);
  if (cfg_.store) {
    rep.deployed = std::make_unique<Graph>(cfg_.graph->clone());
    rep.scrubber = std::make_unique<safety::WeightScrubber>(*rep.deployed, cfg_.scrub);
  }
  rebuild_batcher(rep);
  fleet_.push_back(std::move(rep));
  ++active_;
  report_.max_replicas = std::max(report_.max_replicas, active_);
  return fleet_.size() - 1;
}

void Fleet::rebuild_batcher(Replica& rep) {
  if (!cfg_.execute) return;
  DynamicBatcher::Config bc;
  bc.max_batch = cfg_.max_batch;
  bc.exec = rung_exec();
  bc.quantized = cfg_.variants.front().quantized;
  rep.batcher = std::make_unique<DynamicBatcher>(rep.deployed ? *rep.deployed : *cfg_.graph, bc);
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

void Fleet::submit_ota(double t, safety::OtaPackage update) {
  VEDLIOT_CHECK(!ran_, "submit all OTA pushes before run()");
  VEDLIOT_CHECK(cfg_.store != nullptr, "OTA pushes need integrity mode (FleetConfig::store)");
  VEDLIOT_CHECK(t >= 0, "OTA time must be >= 0");
  const auto pos = std::upper_bound(otas_.begin(), otas_.end(), t,
                                    [](double at, const PendingOta& o) { return at < o.time_s; });
  otas_.insert(pos, PendingOta{t, std::move(update)});
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
      ++report_.failed;
      break;
  }
  responses_.emplace(r.request_id, std::move(r));
}

void Fleet::end_request(double t, std::uint64_t id, ResponseStatus status) {
  Response resp;
  resp.request_id = id;
  resp.status = status;
  resp.time_s = t;
  if (status != ResponseStatus::kShed) resp.latency_s = t - requests_.at(id).arrival_s;
  finish_response(t, std::move(resp));
}

bool Fleet::make_room(double t, Replica& rep, int priority, const std::string& subject) {
  if (!rep.queue->full()) return true;
  const auto victim = rep.queue->displace(priority);
  if (!victim) return false;
  ++report_.displaced;
  log_.add(t, ServeEventKind::kDisplaced, "request " + std::to_string(victim->id),
           "displaced by " + subject + " on " + rep.name);
  end_request(t, victim->id, ResponseStatus::kShed);
  return true;
}

void Fleet::admit(double t, const Request& r) {
  const std::string subject = "request " + std::to_string(r.id);
  if (cfg_.sim) {
    double& tokens = retry_tokens_[r.client];
    tokens = std::min(kRetryTokenCap, tokens + cfg_.retry_tokens_per_request);
  }
  const auto shed = [&](const std::string& why) {
    log_.add(t, ServeEventKind::kShed, subject, why);
    end_request(t, r.id, ResponseStatus::kShed);
  };

  // No static fuel bound: the cost model can promise nothing about this
  // tenant's module, so its requests are infeasible by construction.
  if (!std::isfinite(surcharge_s(r))) {
    return shed("tenant module has no static cost bound (wasm.cost.unbounded)");
  }

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
    return shed("batch " + std::to_string(r.batch) + " exceeds live cap " +
                std::to_string(effective_max_batch()));
  }
  if (ring_.empty()) return shed("no replica available (breakers open)");

  const std::string& name = ring_.route(r.client);
  const std::size_t idx = index_of(name);
  Replica& rep = fleet_[idx];
  if (!make_room(t, rep, r.priority(), subject)) return shed("queue full on " + name);

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
    log_.add(t, ServeEventKind::kCancelled, "request " + std::to_string(dead.id),
             "deadline passed in queue on " + rep.name);
    end_request(t, dead.id, ResponseStatus::kCancelled);
  }
  // An open breaker or a dead module holds the queue; control ticks retry.
  const bool held = cfg_.sim && (!rep.breaker.allow() || !cfg_.sim->alive(rep.slot));
  if (cfg_.sim && !held && rep.queue->empty()) steal(t, rep);
  if (rep.queue->empty() || held) {
    rep.window_close_s.reset();
    return;
  }

  const std::int64_t cap = effective_max_batch();
  std::int64_t waiting = 0;
  for (const Ticket& tk : rep.queue->tickets()) waiting += requests_.at(tk.id).batch;

  if (waiting < cap && !(rep.window_close_s && t >= *rep.window_close_s)) {
    // Not enough lanes yet: close within a short coalescing window (or at an
    // earlier backoff gate) so a near-simultaneous arrival can share the batch.
    rep.window_close_s = std::min(rep.window_close_s.value_or(kInf), t + cfg_.batch_window_s);
    return;
  }

  std::vector<Ticket> group;
  std::int64_t lanes = 0;
  while (auto tk = rep.queue->pop(t)) {
    const std::int64_t b = requests_.at(tk->id).batch;
    if (b > cap) {
      // Admitted under a wider cap that has since browned out.
      log_.add(t, ServeEventKind::kCancelled, "request " + std::to_string(tk->id),
               "batch " + std::to_string(b) + " exceeds degraded cap " + std::to_string(cap));
      end_request(t, tk->id, ResponseStatus::kCancelled);
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
  if (group.empty()) {
    // Everything expired, went over the cap, or waits out a retry backoff:
    // wake at the earliest backoff gate.
    for (const Ticket& tk : rep.queue->tickets()) {
      rep.window_close_s = std::min(rep.window_close_s.value_or(kInf), tk.not_before_s);
    }
    return;
  }
  launch(t, idx, std::move(group));
}

void Fleet::launch(double t, std::size_t idx, std::vector<Ticket> group) {
  Replica& rep = fleet_[idx];
  const std::vector<Cost>& costs = perf_[ladder_.current().variant][rep.kind];
  const double scale = cfg_.sim ? cfg_.sim->gops_scale(rep.slot) : 1.0;

  // Feasibility pruning: drop members whose deadline the batch's own
  // latency (plus the tenants' sandbox surcharges) would bust — the
  // estimate shrinks as the bucket shrinks, so this converges (and makes a
  // delivered-late response impossible short of a mid-flight throttle:
  // the capacity-honest deadline invariant).
  double lat = 0;
  std::int64_t lanes = 0;
  std::size_t b = 0;
  while (true) {
    lanes = 0;
    double surcharge = 0;
    for (const Ticket& tk : group) {
      const Request& req = requests_.at(tk.id);
      lanes += req.batch;
      surcharge += surcharge_s(req);
    }
    if (lanes == 0) break;
    // Smallest bucket that fits (lanes never exceed the widest).
    b = static_cast<std::size_t>(std::lower_bound(widths_.begin(), widths_.end(), lanes) -
                                 widths_.begin());
    lat = costs[b].latency_s / scale + surcharge;
    const auto first_bad = std::stable_partition(
        group.begin(), group.end(), [&](const Ticket& tk) { return t + lat <= tk.deadline_s; });
    if (first_bad == group.end()) break;
    for (auto it = first_bad; it != group.end(); ++it) {
      log_.add(t, ServeEventKind::kCancelled, "request " + std::to_string(it->id),
               "infeasible at dispatch on " + rep.name + " (batch latency " + std::to_string(lat) +
                   "s)");
      end_request(t, it->id, ResponseStatus::kCancelled);
    }
    group.erase(first_bad, group.end());
  }
  if (group.empty()) {
    try_dispatch(t, idx);  // the queue may still hold a feasible next batch
    return;
  }

  if (cfg_.sim) {
    rep.breaker.on_dispatch();
    if (const std::string why = transfer(kIngress, rep.slot); !why.empty()) {
      std::vector<std::uint64_t> members;
      for (const Ticket& tk : group) members.push_back(tk.id);
      fail_batch(t, idx, ServeEventKind::kTransientFault,
                 std::string(kIngress) + "->" + rep.slot + " batch transfer failed (" + why + ")",
                 members);
      try_dispatch(t, idx);
      return;
    }
  }

  const std::int64_t width = widths_[b];
  const double finish = t + lat;
  const double watts = costs[b].power_w;

  // Execute mode: synthesize each member's input from its payload handle
  // and run the coalesced group through the replica's batcher for real.
  PendingBatch batch;
  std::vector<std::uint32_t> crcs(group.size(), 0);
  if (cfg_.execute) {
    std::vector<Tensor> inputs;
    inputs.reserve(group.size());
    for (const Ticket& tk : group) {
      inputs.push_back(synthesize_input(*cfg_.graph, cfg_.seed, requests_.at(tk.id)));
    }
    std::vector<Tensor> outputs = rep.batcher->run(inputs);
    for (std::size_t i = 0; i < outputs.size(); ++i) crcs[i] = util::crc32(outputs[i].data());
    if (cfg_.robustness) {
      batch.inputs = std::move(inputs);
      batch.outputs = std::move(outputs);
    }
  }

  batch.finish_s = finish;
  batch.replica = idx;
  batch.gops_scale = scale;
  const std::string dispatched =
      rep.name + " bucket " + std::to_string(width) + rep.tag + variant_tag();
  for (std::size_t i = 0; i < group.size(); ++i) {
    const Request& req = requests_.at(group[i].id);
    Response resp;
    resp.request_id = req.id;
    resp.status = finish <= req.deadline_s ? ResponseStatus::kOk : ResponseStatus::kLate;
    resp.time_s = finish;
    resp.latency_s = finish - req.arrival_s;
    resp.served_by = rep.served_by;
    resp.degraded = ladder_.level() > 0;
    resp.output_crc32 = crcs[i];
    batch.responses.push_back(std::move(resp));
    log_.add(t, ServeEventKind::kDispatched, "request " + std::to_string(req.id), dispatched);
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
  schedule(std::move(batch));
}

void Fleet::schedule(PendingBatch batch) {
  const auto pos = std::upper_bound(
      in_flight_.begin(), in_flight_.end(), batch,
      [](const PendingBatch& a, const PendingBatch& b) { return a.finish_s < b.finish_s; });
  in_flight_.insert(pos, std::move(batch));
}

void Fleet::finish_batch(double t, PendingBatch batch) {
  if (cfg_.sim) {
    Replica& rep = fleet_[batch.replica];
    const bool died = !cfg_.sim->alive(rep.slot);
    if (const std::string why = died ? "" : transfer(rep.slot, kIngress); died || !why.empty()) {
      std::vector<std::uint64_t> members;
      for (const Response& r : batch.responses) members.push_back(r.request_id);
      fail_batch(t, batch.replica,
                 died ? ServeEventKind::kBackendFailure : ServeEventKind::kTransientFault,
                 died ? rep.slot + " died mid-batch"
                      : rep.slot + "->" + kIngress + " response transfer failed (" + why + ")",
                 members);
      return;
    }
    if (const auto tr = rep.breaker.record_success(t)) on_transition(t, batch.replica, *tr);
  }
  for (std::size_t i = 0; i < batch.responses.size(); ++i) {
    if (!batch.outputs.empty()) {
      check_delivery(t, batch.replica, batch.responses[i], batch.inputs[i], batch.outputs[i]);
    }
    finish_response(t, std::move(batch.responses[i]));
  }
}

void Fleet::apply_brownout(double t, int delta) {
  const int level = ladder_.level();
  report_.max_brownout_level = std::max(report_.max_brownout_level, level);
  log_.add(t, delta > 0 ? ServeEventKind::kBrownoutDown : ServeEventKind::kBrownoutUp, "fleet",
           "batch cap now " + std::to_string(effective_max_batch()) + variant_tag(), level);
  if (!cfg_.execute) return;
  // The shrink must be enforced by the runtime, not fleet bookkeeping:
  // forward the rung's envelope to every replica's session, which then
  // refuses feeds wider than the cap.
  for (Replica& rep : fleet_) {
    if (!rep.retired && rep.batcher) rep.batcher->set_exec_config(rung_exec());
  }
}

void Fleet::control_tick(double t) {
  if (cfg_.sim) fault_tick(t);

  const double cap = static_cast<double>(cfg_.queue_capacity);
  std::size_t depth = 0;
  double hottest = 0;  // fill of the fullest queue
  double open = 0;     // replicas their breakers hold open
  for (const Replica& rep : fleet_) {
    if (rep.retired) continue;
    depth += rep.queue->depth();
    hottest = std::max(hottest, static_cast<double>(rep.queue->depth()) / cap);
    if (rep.breaker.state() == BreakerState::kOpen) ++open;
  }
  const double active = static_cast<double>(active_);
  const double per_replica = static_cast<double>(depth) / active;
  const double busy = (report_.busy_s - busy_mark_s_) / (active * cfg_.control_period_s);
  busy_mark_s_ = report_.busy_s;

  // Brownout pressure: the mean queue fill, which autoscaling relieves. A
  // fixed replica set on a simulated chassis can only degrade: on the
  // hottest queue's fill or the share of breakers open. Its busy share over
  // the last tick holds a rung (never degrades one): a queue a cheap rung
  // drains does not show that the dearer rung above would keep up.
  const double hold = (cfg_.brownout.low_watermark + cfg_.brownout.high_watermark) / 2;
  const double load = cfg_.sim ? std::max({hottest, open / active, std::min(busy, hold)})
                               : static_cast<double>(depth) / (active * cap);
  if (const int delta = ladder_.observe(load)) apply_brownout(t, delta);

  if (per_replica > FleetConfig::kScaleUpDepth && active_ < cfg_.max_replicas) {
    const std::size_t idx = add_replica();
    ++report_.scale_ups;
    log_.add(t, ServeEventKind::kScaleUp, fleet_[idx].name,
             "mean queue depth " + std::to_string(per_replica), static_cast<double>(active_));
  } else if (per_replica < FleetConfig::kScaleDownDepth && active_ > cfg_.min_replicas) {
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

  // Held queues (open breakers, dead modules, backoff gates) re-check here.
  if (cfg_.sim) {
    for (std::size_t i = 0; i < fleet_.size(); ++i) try_dispatch(t, i);
  }
}

// --- Fault policies: reached only with a simulator attached ---------------

void Fleet::steal(double t, Replica& thief) {
  // Work-conserving like one shared queue: take a batch off the deepest peer.
  Replica* victim = &thief;
  for (Replica& p : fleet_) victim = p.queue->depth() > victim->queue->depth() ? &p : victim;
  for (std::int64_t lanes = 0; !thief.queue->full();) {
    const auto tk = victim->queue->pop(t);
    if (!tk) return;
    lanes += requests_.at(tk->id).batch;
    if (lanes > effective_max_batch()) return victim->queue->push(*tk);
    thief.queue->push(*tk);
  }
}

std::optional<std::size_t> Fleet::replica_at(const std::string& slot) const {
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    if (fleet_[i].slot == slot) return i;  // a simulated fleet never retires replicas
  }
  return std::nullopt;
}

std::string Fleet::transfer(const std::string& from, const std::string& to) {
  try {
    return cfg_.sim->try_transfer(from, to) ? "" : "transient transfer error";
  } catch (const NotFound&) {
    return "fabric partition";
  }
}

void Fleet::fail_batch(double t, std::size_t idx, ServeEventKind kind, const std::string& detail,
                       const std::vector<std::uint64_t>& members) {
  Replica& rep = fleet_[idx];
  log_.add(t, kind, "backend " + rep.slot, detail);
  // The breaker moves first, so retries route around a replica it opens.
  if (const auto tr = rep.breaker.record_failure(t, detail)) on_transition(t, idx, *tr);
  for (const std::uint64_t id : members) retry_or_fail(t, id, idx, detail);
}

void Fleet::retry_or_fail(double t, std::uint64_t id, std::size_t idx, const std::string& reason) {
  const Request& r = requests_.at(id);
  const std::string subject = "request " + std::to_string(id);
  const int attempt = ++attempts_[id];
  double& tokens = retry_tokens_[r.client];
  const auto fail = [&](const std::string& why) {
    log_.add(t, ServeEventKind::kFailed, subject, reason + "; " + why);
    end_request(t, id, ResponseStatus::kFailed);
  };

  if (tokens < 1.0) return fail("client " + r.client + " retry budget empty");
  const double backoff = rng_.backoff_s(kBackoffBaseS, kBackoffCapS, attempt - 1);
  const double ready = t + backoff;
  if (ready >= r.deadline_s) return fail("no time left to retry");
  // The retry re-routes: the failed replica may have left the ring.
  const std::size_t owner = ring_.empty() ? idx : index_of(ring_.route(r.client));
  Replica& rep = fleet_[owner];
  if (!make_room(t, rep, r.priority(), subject)) return fail("queue full on retry");

  tokens -= 1.0;
  ++report_.retries;
  rep.queue->push(Ticket{id, r.priority(), r.deadline_s, ready, t});
  report_.max_queue_depth = std::max(report_.max_queue_depth, rep.queue->depth());
  log_.add(t, ServeEventKind::kRetry, subject,
           "attempt " + std::to_string(attempt) + " on " + rep.name + ", backoff " +
               std::to_string(backoff * 1e3) + " ms",
           backoff);
  wake(t, owner, ready);
}

void Fleet::wake(double t, std::size_t idx, double at) {
  Replica& rep = fleet_[idx];
  if (rep.busy_until_s > t) return;  // its batch's finish re-checks the queue
  rep.window_close_s = std::min(rep.window_close_s.value_or(kInf), at);
}

void Fleet::on_transition(double t, std::size_t idx, const BreakerTransition& tr) {
  Replica& rep = fleet_[idx];
  ServeEventKind kind = ServeEventKind::kBreakerClosed;
  if (tr.to == BreakerState::kOpen) kind = ServeEventKind::kBreakerOpen;
  if (tr.to == BreakerState::kHalfOpen) kind = ServeEventKind::kBreakerHalfOpen;
  log_.add(t, kind, "backend " + rep.slot, tr.reason);
  if (tr.to != BreakerState::kOpen) {
    if (!ring_.contains(rep.name)) ring_.add(rep.name, kind_weight_[rep.kind]);  // probes may come
    return;
  }
  if (!ring_.contains(rep.name)) return;
  ring_.remove(rep.name);
  if (ring_.empty()) return;  // nowhere to go: the tickets wait for a probe
  // Its clients remap as for a drain, and its queued tickets follow them.
  while (const auto tk = rep.queue->pop(kInf)) {
    const std::size_t owner = index_of(ring_.route(requests_.at(tk->id).client));
    Replica& to = fleet_[owner];
    const std::string subject = "request " + std::to_string(tk->id);
    if (!make_room(t, to, tk->priority, subject)) {
      log_.add(t, ServeEventKind::kCancelled, subject,
               "no room on " + to.name + " after " + rep.name + " left the ring");
      end_request(t, tk->id, ResponseStatus::kCancelled);
      continue;
    }
    to.queue->push(*tk);
    report_.max_queue_depth = std::max(report_.max_queue_depth, to.queue->depth());
    wake(t, owner, t);
  }
}

void Fleet::fault_tick(double t) {
  for (const platform::HealthBeat& beat : health_->tick(*cfg_.sim)) {
    const std::string subject = "backend " + beat.slot;
    if (beat.recovered) {
      // Back alive: the breaker stays open until its probes succeed, so a
      // flapping module must prove itself before regaining traffic.
      log_.add(t, ServeEventKind::kBackendUp, subject, "heartbeats answering again");
      continue;
    }
    if (!beat.declared_down) continue;
    log_.add(t, ServeEventKind::kBackendDown, subject,
             "declared dead after " + std::to_string(beat.misses) + " missed heartbeats",
             static_cast<double>(beat.misses));
    const std::size_t idx = *replica_at(beat.slot);
    if (const auto tr = fleet_[idx].breaker.force_open(t, "heartbeat monitor: backend down")) {
      on_transition(t, idx, *tr);
    }
  }
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    if (const auto tr = fleet_[i].breaker.tick(t)) on_transition(t, i, *tr);
  }
  if (!cfg_.store) return;
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    Replica& rep = fleet_[i];
    const bool in_probation = rep.probation > 0;
    if (in_probation) --rep.probation;
    const auto hits = rep.scrubber->tick();
    if (hits.empty()) continue;
    log_hits(t, rep, hits, "scrub sweep");
    recover(t, i, hits, in_probation);
  }
}

void Fleet::apply_fault(double t, const platform::FaultEvent& e) {
  using platform::FaultKind;
  if (e.kind == FaultKind::kThermalThrottle || e.kind == FaultKind::kThermalRecover) {
    stretch(t, e.slot);
  } else if (e.kind == FaultKind::kOtaCorrupt) {
    // The next OTA payload still to arrive was damaged in transit.
    const auto next = std::find_if(otas_.begin() + static_cast<std::ptrdiff_t>(next_ota_),
                                   otas_.end(), [](const PendingOta& o) { return !o.corrupted; });
    if (next != otas_.end()) next->corrupted = true;
  } else if (e.kind == FaultKind::kMemoryFault && cfg_.store && replica_at(e.slot)) {
    // An SEU: the damage lands on the copy deployed on that slot alone.
    Replica& rep = fleet_[*replica_at(e.slot)];
    const auto bits = static_cast<std::size_t>(e.magnitude);
    safety::FaultInjector injector(fault_rng_);
    const auto flipped = injector.flip_weight_bits(*rep.deployed, bits, /*include_bias=*/true);
    rebuild_batcher(rep);  // its session runs a rebatched clone the flip missed
    ++report_.memory_faults;
    // Name each flipped tensor once, as a kScrubHit names the one it finds.
    std::string detail =
        std::to_string(bits) + " weight bit(s) flipped in deployed " + cfg_.variants.front().name;
    for (auto f = flipped.begin(); f != flipped.end(); ++f) {
      if (std::find(flipped.begin(), f, *f) != f) continue;
      detail += (f == flipped.begin() ? ": node '" : ", node '") +
                rep.deployed->node(f->first).name + "' tensor " + std::to_string(f->second);
    }
    log_.add(t, ServeEventKind::kMemoryFault, "backend " + e.slot, detail,
             static_cast<double>(bits));
  }
}

void Fleet::stretch(double t, const std::string& slot) {
  // A throttle landing on a busy replica stretches (a recovery compresses)
  // the rest of its in-flight batch — the one way admitted, feasible work
  // can still finish late. A finish due exactly now is past its compute.
  const auto it = std::find_if(in_flight_.begin(), in_flight_.end(), [&](const PendingBatch& b) {
    return fleet_[b.replica].slot == slot;
  });
  if (it == in_flight_.end()) return;
  const double scale = cfg_.sim->gops_scale(slot);
  if (it->finish_s <= t || scale == it->gops_scale) return;
  PendingBatch batch = std::move(*it);
  in_flight_.erase(it);
  batch.finish_s = t + (batch.finish_s - t) * (batch.gops_scale / scale);
  batch.gops_scale = scale;
  fleet_[batch.replica].busy_until_s = batch.finish_s;
  for (Response& resp : batch.responses) {
    const Request& req = requests_.at(resp.request_id);
    resp.time_s = batch.finish_s;
    resp.latency_s = batch.finish_s - req.arrival_s;
    resp.status = batch.finish_s <= req.deadline_s ? ResponseStatus::kOk : ResponseStatus::kLate;
  }
  schedule(std::move(batch));
}

// --- Integrity mode: reached only with a model store attached -------------

void Fleet::check_delivery(double t, std::size_t idx, const Response& resp, const Tensor& input,
                           const Tensor& output) {
  if (cfg_.robustness->submit(input, output) != safety::CheckResult::kCheckedFaulty) return;
  const double divergence = cfg_.robustness->last_divergence();
  ++report_.quality_degraded;
  log_.add(t, ServeEventKind::kQualityDegraded, "request " + std::to_string(resp.request_id),
           "robustness check verdict: checked-faulty (divergence " + std::to_string(divergence) +
               ")",
           divergence);
  if (!cfg_.store) return;
  // Don't wait for the next scrub sweep: localize now with a full scan of
  // the replica that served the divergent response and self-heal it.
  Replica& rep = fleet_[idx];
  const auto hits = rep.scrubber->full_scan();
  // No hit: an earlier verdict on the same batch already healed the replica.
  if (hits.empty()) return;
  log_hits(t, rep, hits, "full scan after checked-faulty");
  recover(t, idx, hits, rep.probation > 0);
}

void Fleet::log_hits(double t, const Replica& rep,
                     const std::vector<safety::WeightScrubber::Hit>& hits, const char* how) {
  report_.scrub_hits += hits.size();
  for (const auto& h : hits) {
    log_.add(t, ServeEventKind::kScrubHit, "backend " + rep.slot,
             "node '" + h.node_name + "' tensor " + std::to_string(h.tensor) + " crc mismatch (" +
                 how + ")",
             static_cast<double>(h.tensor));
  }
}

void Fleet::recover(double t, std::size_t idx,
                    const std::vector<safety::WeightScrubber::Hit>& hits, bool in_probation) {
  // Quarantine: the replica's breaker is forced open while its weights rewrite.
  const std::string& name = cfg_.variants.front().name;
  const std::string why = "weight corruption on deployed " + name + "; reloading from golden store";
  ++report_.quarantines;
  log_.add(t, ServeEventKind::kQuarantine, "backend " + fleet_[idx].slot, why);
  if (const auto tr = fleet_[idx].breaker.force_open(t, why)) on_transition(t, idx, *tr);

  if (in_probation && cfg_.store->can_rollback(name)) {
    // Corruption this soon after a commit means the freshly-written image
    // itself is bad — a bad push, not an SEU. Revert the whole update.
    const auto back = cfg_.store->rollback(name);
    redeploy();
    for (Replica& r : fleet_) r.probation = 0;
    ++report_.ota_rolled_back;
    log_.add(t, ServeEventKind::kOtaRolledBack, "ota " + name,
             "corruption inside probation window; " + back.detail,
             static_cast<double>(back.to_version));
    return;
  }

  Replica& rep = fleet_[idx];
  std::size_t rewritten = 0;
  try {
    rewritten = cfg_.store->repair(name, *rep.deployed, hits);
  } catch (const Error&) {
    // Localized repair did not hold (sticky storage, diverged shapes):
    // fall back to a full golden restore.
    rewritten = cfg_.store->restore(name, *rep.deployed);
  }
  rebuild_batcher(rep);
  // The scrubber keeps its golden baseline: repair verified each rewritten
  // tensor against it and restore writes the same golden bits, while
  // re-trusting the current bits would bake in a flip on a tensor this
  // sweep has not reached yet.
  ++report_.model_reloads;
  log_.add(t, ServeEventKind::kModelReloaded, "backend " + rep.slot,
           std::to_string(rewritten) + " tensor(s) re-materialized from golden v" +
               std::to_string(cfg_.store->version(name)),
           static_cast<double>(rewritten));
}

void Fleet::redeploy() {
  for (Replica& rep : fleet_) {
    cfg_.store->restore(cfg_.variants.front().name, *rep.deployed);
    rebuild_batcher(rep);
    rep.scrubber->rebaseline();
  }
  if (cfg_.robustness) cfg_.robustness->replace_golden(*fleet_.front().deployed);
}

void Fleet::process_ota(double t, PendingOta ota) {
  const std::string& name = cfg_.variants.front().name;
  if (ota.corrupted) {
    // In-transit corruption (a scheduled kOtaCorrupt marker): flip a few
    // payload bytes. Silent by design — detection is the store's job.
    for (int i = 0; i < 3; ++i) {
      const auto at = static_cast<std::size_t>(fault_rng_.uniform_int(
          0, static_cast<std::int64_t>(ota.update.package.size()) - 1));
      ota.update.package[at] ^= static_cast<std::uint8_t>(1 + fault_rng_.uniform_int(0, 254));
    }
  }
  ++report_.ota_staged;
  log_.add(t, ServeEventKind::kOtaStaged, "ota " + name,
           "payload " + std::to_string(ota.update.package.size()) + " bytes, verifying",
           static_cast<double>(ota.update.package.size()));

  const auto rep = cfg_.store->push(name, ota.update);
  switch (rep.outcome) {
    case safety::OtaOutcome::kCommitted:
      redeploy();
      for (Replica& r : fleet_) {
        r.probation = r.scrubber->ticks_per_sweep() * cfg_.ota_probation_sweeps;
      }
      ++report_.ota_committed;
      log_.add(t, ServeEventKind::kOtaCommitted, "ota " + name,
               "v" + std::to_string(rep.from_version) + " -> v" + std::to_string(rep.to_version) +
                   "; " + rep.detail,
               static_cast<double>(rep.to_version));
      break;
    case safety::OtaOutcome::kRejected:
      ++report_.ota_rejected;
      log_.add(t, ServeEventKind::kOtaRejected, "ota " + name, rep.detail,
               static_cast<double>(rep.from_version));
      break;
    case safety::OtaOutcome::kRolledBack:
      throw Error("store.push must not report rolled-back");
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

  for (std::size_t i = 0; i < cfg_.initial_replicas; ++i) add_replica();
  if (cfg_.sim) {
    std::vector<std::string> slots;
    for (const Replica& rep : fleet_) slots.push_back(rep.slot);
    health_.emplace(std::move(slots), platform::HealthConfig{});
  }

  std::size_t next_arrival = 0;
  double next_control = cfg_.control_period_s;
  double now = 0;
  while (true) {
    const double t_batch = in_flight_.empty() ? kInf : in_flight_.front().finish_s;
    double t_window = kInf;
    for (const Replica& rep : fleet_) {
      if (!rep.retired && rep.window_close_s) t_window = std::min(t_window, *rep.window_close_s);
    }
    const double t_arrival =
        next_arrival < arrivals_.size() ? arrivals_[next_arrival].arrival_s : kInf;
    const double t_control = next_control <= duration_s ? next_control : kInf;
    const double t_ota = next_ota_ < otas_.size() ? otas_[next_ota_].time_s : kInf;
    double t = std::min({t_batch, t_window, t_arrival, t_control, t_ota});
    // Scheduled platform faults are wakeups of their own, so a throttle
    // takes effect at its scheduled time — but only while the run is live.
    if (cfg_.sim && t < kInf) t = std::min(t, cfg_.sim->next_fault_time().value_or(kInf));
    if (t == kInf) break;  // drained: every request reached a terminal state
    now = t;
    if (cfg_.sim) {
      for (const platform::FaultEvent& e : cfg_.sim->advance_to(t)) apply_fault(t, e);
    }

    // Fixed tie order keeps runs bitwise deterministic: completions free
    // capacity first, then windows close, then arrivals land, then the
    // control loop observes the settled state, then OTA pushes arrive. A
    // fault-only wakeup falls through (its effect was applied above).
    if (t_batch == t) {
      PendingBatch batch = std::move(in_flight_.front());
      in_flight_.erase(in_flight_.begin());
      const std::size_t idx = batch.replica;
      finish_batch(t, std::move(batch));
      try_dispatch(t, idx);
    } else if (t_window == t) {
      for (std::size_t i = 0; i < fleet_.size(); ++i) {
        const Replica& rep = fleet_[i];
        if (!rep.retired && rep.window_close_s && *rep.window_close_s <= t) try_dispatch(t, i);
      }
    } else if (t_arrival == t) {
      const Request& r = arrivals_[next_arrival++];
      admit(t, r);
    } else if (t_control == t) {
      control_tick(t);
      next_control += cfg_.control_period_s;
    } else if (t_ota == t) {
      process_ota(t, std::move(otas_[next_ota_++]));
    }
  }

  // Tickets held past the horizon (behind an open breaker or a backoff
  // gate) are accounted, not dropped silently.
  const double t_end = std::max(duration_s, now);
  for (Replica& rep : fleet_) {
    while (const auto tk = rep.queue->pop(kInf)) {
      log_.add(t_end, ServeEventKind::kCancelled, "request " + std::to_string(tk->id),
               "run ended with request still queued on " + rep.name);
      end_request(t_end, tk->id, ResponseStatus::kCancelled);
    }
  }

  report_.events = log_.take();
  report_.final_replicas = active_;
  report_.final_brownout_level = ladder_.level();
  for (auto& sp : placement_.power_report()) report_.power.push_back(std::move(sp));
  if (cfg_.robustness) {
    report_.integrity_checks = cfg_.robustness->checks_run();
    report_.integrity_faults = cfg_.robustness->faults_detected();
  }
  if (cfg_.store) {
    // End-state audit: a healed fleet leaves no corrupt tensor behind.
    for (Replica& rep : fleet_) report_.dirty_at_end += rep.scrubber->full_scan().size();
  }

  report_.responses.reserve(responses_.size());
  for (auto& entry : responses_) report_.responses.push_back(std::move(entry.second));
  return report_;
}

}  // namespace vedliot::serve
