#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "hw/perf_model.hpp"
#include "platform/baseboard.hpp"

namespace vedliot::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f ms", seconds * 1e3);
  return buf;
}

}  // namespace

double ServeReport::goodput() const {
  if (offered == 0) return 0.0;
  return static_cast<double>(completed) / static_cast<double>(offered);
}

Server::Server(platform::PlatformSimulator& sim, ServerConfig config)
    : sim_(sim),
      cfg_(std::move(config)),
      rng_(cfg_.seed),
      queue_(cfg_.queue),
      ladder_([&] {
        BrownoutConfig b = cfg_.brownout;
        b.max_level = static_cast<int>(cfg_.ladder.size()) - 1;
        return b;
      }()),
      health_(cfg_.backends, cfg_.health),
      fault_rng_(cfg_.seed ^ 0xB17F11Bull),
      log_("vedliot.serve", cfg_.trace, cfg_.metrics) {
  VEDLIOT_CHECK(!cfg_.backends.empty(), "server needs at least one backend");
  VEDLIOT_CHECK(!cfg_.variants.empty(), "server needs at least one model variant");
  VEDLIOT_CHECK(!cfg_.ladder.empty(), "degradation ladder needs at least one rung");
  for (const auto& step : cfg_.ladder) {
    VEDLIOT_CHECK(step.variant < cfg_.variants.size(), "ladder rung names unknown variant");
    VEDLIOT_CHECK(cfg_.variants[step.variant].graph != nullptr, "model variant needs a graph");
  }
  VEDLIOT_CHECK(cfg_.control_period_s > 0, "control period must be positive");
  VEDLIOT_CHECK(cfg_.retry_tokens_per_request >= 0, "retry token rate must be >= 0");
  VEDLIOT_CHECK(cfg_.backoff_base_s > 0 && cfg_.backoff_cap_s > 0,
                "backoff parameters must be positive");
  for (const auto& slot : cfg_.backends) {
    VEDLIOT_CHECK(sim_.chassis().occupied(slot), "backend slot " + slot + " has no module");
    breakers_.emplace(slot, CircuitBreaker(cfg_.breaker));
  }
  base_latency_.resize(cfg_.variants.size());
  if (cfg_.store) {
    // Integrity mode: serve from our own deployed clones; the pristine
    // variant graph becomes (or must already match) the golden package.
    for (const auto& v : cfg_.variants) {
      VEDLIOT_CHECK(v.graph->weights_materialized(),
                    "integrity mode needs materialized weights on variant " + v.name);
      deployed_.push_back(std::make_unique<Graph>(v.graph->clone()));
      if (!cfg_.store->has(v.name)) cfg_.store->install(v.name, *v.graph);
      scrubbers_.push_back(
          std::make_unique<safety::WeightScrubber>(*deployed_.back(), cfg_.scrub));
    }
    probation_.assign(cfg_.variants.size(), 0);
  }
  if (cfg_.execute) {
    for (std::size_t i = 0; i < cfg_.variants.size(); ++i) {
      const ModelVariant& v = cfg_.variants[i];
      const Graph& g = cfg_.store ? *deployed_[i] : *v.graph;
      runtime::RunOptions opts;
      opts.exec = cfg_.ladder.front().exec;
      sessions_.push_back(v.quantized ? runtime::make_quantized_session(g, opts)
                                      : runtime::make_session(g, opts));
    }
  }
}

Server::~Server() = default;

std::uint64_t Server::submit(Request r) {
  VEDLIOT_CHECK(!ran_, "submit all load before run()");
  VEDLIOT_CHECK(r.version == kServeApiVersion,
                "request wire version " + std::to_string(r.version) + " != expected " +
                    std::to_string(kServeApiVersion));
  VEDLIOT_CHECK(r.arrival_s >= 0, "arrival time must be >= 0");
  VEDLIOT_CHECK(r.deadline_s > r.arrival_s, "deadline must lie after arrival");
  VEDLIOT_CHECK(r.batch >= 1, "batch must be >= 1");
  if (r.id == 0) r.id = next_id_;
  next_id_ = std::max(next_id_, r.id + 1);
  arrivals_.push_back(r);
  return r.id;
}

void Server::log_transition(double t, const std::string& slot, const BreakerTransition& tr) {
  ServeEventKind kind;
  switch (tr.to) {
    case BreakerState::kOpen: kind = ServeEventKind::kBreakerOpen; break;
    case BreakerState::kHalfOpen: kind = ServeEventKind::kBreakerHalfOpen; break;
    case BreakerState::kClosed: kind = ServeEventKind::kBreakerClosed; break;
    default: throw InvalidArgument("unknown breaker state");
  }
  log_.add(t, kind, "backend " + slot, tr.reason);
}

double Server::service_time(const std::string& slot, std::int64_t batch) const {
  // A crashed module is hot-removed from the chassis, so its device spec
  // is unreadable while down: report it unusable without poisoning the
  // cache (the estimate is re-computed once the module restarts).
  if (!sim_.alive(slot)) return kInf;
  const std::size_t variant = rung().variant;
  auto& cache = base_latency_[variant];
  auto it = cache.find(slot);
  if (it == cache.end()) {
    const ModelVariant& v = cfg_.variants[variant];
    double base = kInf;  // backend cannot run this precision -> never chosen
    try {
      base = hw::estimate(sim_.chassis().module_at(slot).device_spec(), *v.graph, v.dtype)
                 .latency_s;
    } catch (const Unsupported&) {
    }
    it = cache.emplace(slot, base).first;
  }
  const double scale = sim_.gops_scale(slot);
  return it->second * static_cast<double>(batch) / std::max(scale, 1e-9);
}

double Server::tenant_overhead(const std::string& client) const {
  const auto it = cfg_.tenant_cost_s.find(client);
  return it == cfg_.tenant_cost_s.end() ? 0.0 : it->second;
}

std::optional<std::pair<double, double>> Server::service_bounds(std::int64_t batch) const {
  double fast = kInf, slow = 0;
  for (const auto& slot : cfg_.backends) {
    if (!breakers_.at(slot).allow()) continue;
    const double svc = service_time(slot, batch);
    if (!std::isfinite(svc)) continue;
    fast = std::min(fast, svc);
    slow = std::max(slow, svc);
  }
  if (!std::isfinite(fast)) return std::nullopt;
  return std::make_pair(fast, slow);
}

void Server::admit(const Request& r) {
  const double t = r.arrival_s;
  ++report_.offered;
  requests_.emplace(r.id, r);
  double& tokens = retry_tokens_[r.client];
  tokens = std::min(cfg_.retry_token_cap, tokens + cfg_.retry_tokens_per_request);
  const std::string subject = "request " + std::to_string(r.id);

  // Tenant sandbox surcharge from the static verifier's fuel bound. No
  // bound means the cost model cannot promise anything about this client's
  // module: its requests are infeasible by construction.
  const double tenant = tenant_overhead(r.client);
  if (!std::isfinite(tenant)) {
    ++report_.shed;
    log_.add(t, ServeEventKind::kShed, subject,
             "tenant module has no static cost bound (wasm.cost.unbounded)");
    return;
  }

  const BrownoutStep& step = rung();
  if (step.exec.max_batch > 0 && r.batch > step.exec.max_batch) {
    ++report_.shed;
    log_.add(t, ServeEventKind::kShed, subject,
             "batch " + std::to_string(r.batch) + " exceeds brownout cap " +
                 std::to_string(step.exec.max_batch));
    return;
  }

  std::size_t allowed = 0;
  for (const auto& slot : cfg_.backends) {
    if (breakers_.at(slot).allow()) ++allowed;
  }
  const auto bounds = service_bounds(r.batch);
  if (!bounds || allowed == 0) {
    ++report_.shed;
    log_.add(t, ServeEventKind::kShed, subject, "no backend available (breakers open)");
    return;
  }

  // Conservative wait bound from the cost model: the queue drains across
  // the allowed backends at the fastest per-request rate, and this request
  // may land on the slowest one. Shedding on an estimate keeps the bounded
  // queue from filling with doomed work.
  const double est_done = t +
                          (static_cast<double>(queue_.depth()) /
                           static_cast<double>(allowed)) *
                              bounds->first +
                          bounds->second + tenant;
  if (est_done > r.deadline_s) {
    ++report_.shed;
    log_.add(t, ServeEventKind::kShed, subject,
             "deadline infeasible: est completion " + ms(est_done - t) + " > budget " +
                 ms(r.deadline_s - t),
             est_done - r.deadline_s);
    return;
  }

  if (queue_.full()) {
    const auto victim = queue_.displace(r.priority());
    if (!victim) {
      ++report_.shed;
      log_.add(t, ServeEventKind::kShed, subject, "queue full");
      return;
    }
    ++report_.displaced;
    log_.add(t, ServeEventKind::kDisplaced, "request " + std::to_string(victim->id),
             "evicted by higher-priority request " + std::to_string(r.id),
             static_cast<double>(r.priority()));
  }

  queue_.push(Ticket{r.id, r.priority(), r.deadline_s, 0.0, t});
  ++report_.admitted;
  report_.max_queue_depth = std::max(report_.max_queue_depth, queue_.depth());
  log_.add(t, ServeEventKind::kAdmitted, subject,
           std::string(priority_class_name(r.priority_class)) + ", budget " +
               ms(r.deadline_s - t),
           static_cast<double>(queue_.depth()));
}

void Server::apply_brownout(double t, int delta) {
  if (delta == 0) return;
  level_ = ladder_.level();
  report_.max_brownout_level = std::max(report_.max_brownout_level, level_);
  const BrownoutStep& step = rung();
  const ModelVariant& v = cfg_.variants[step.variant];
  if (cfg_.execute) sessions_[step.variant]->set_exec_config(step.exec);
  log_.add(t, delta > 0 ? ServeEventKind::kBrownoutDown : ServeEventKind::kBrownoutUp, "brownout",
           "level " + std::to_string(level_) + ": variant " + v.name + ", batch cap " +
               std::to_string(step.exec.max_batch),
           static_cast<double>(level_));
}

void Server::control_tick(double t) {
  for (const platform::HealthBeat& beat : health_.tick(sim_)) {
    if (beat.recovered) {
      // Back alive: the breaker stays open until its probes succeed, so a
      // flapping module must prove itself before regaining queue share.
      log_.add(t, ServeEventKind::kBackendUp, "backend " + beat.slot,
               "heartbeats answering again");
      continue;
    }
    if (!beat.declared_down) continue;
    log_.add(t, ServeEventKind::kBackendDown, "backend " + beat.slot,
             "declared dead after " + std::to_string(beat.misses) + " missed heartbeats",
             static_cast<double>(beat.misses));
    if (const auto tr = breakers_.at(beat.slot).force_open(t, "heartbeat monitor: backend down")) {
      log_transition(t, beat.slot, *tr);
    }
  }

  for (auto& [slot, breaker] : breakers_) {
    if (const auto tr = breaker.tick(t)) log_transition(t, slot, *tr);
  }

  if (cfg_.store) scrub_tick(t);

  for (const Ticket& dead : queue_.expire(t)) {
    ++report_.cancelled;
    log_.add(t, ServeEventKind::kCancelled, "request " + std::to_string(dead.id),
             "deadline passed in queue");
  }

  std::size_t open = 0;
  for (const auto& [slot, breaker] : breakers_) {
    if (breaker.state() == BreakerState::kOpen) ++open;
  }
  const double load =
      std::max(static_cast<double>(queue_.depth()) / static_cast<double>(queue_.capacity()),
               static_cast<double>(open) / static_cast<double>(cfg_.backends.size()));
  apply_brownout(t, ladder_.observe(load));

  if (cfg_.metrics) {
    cfg_.metrics->gauge("vedliot.serve.queue_depth").set(static_cast<double>(queue_.depth()));
    cfg_.metrics->gauge("vedliot.serve.brownout_level").set(static_cast<double>(level_));
    cfg_.metrics->gauge("vedliot.serve.open_breakers").set(static_cast<double>(open));
  }

  try_dispatch(t);
}

void Server::try_dispatch(double t) {
  while (!queue_.empty()) {
    // Free, breaker-allowed backends that can run the current variant.
    std::vector<std::string> free;
    for (const auto& slot : cfg_.backends) {
      if (in_flight_.count(slot)) continue;
      if (!breakers_.at(slot).allow()) continue;
      if (!std::isfinite(service_time(slot, 1))) continue;
      free.push_back(slot);
    }
    if (free.empty()) return;

    const auto ticket = queue_.pop(t);
    if (!ticket) return;  // everything dispatchable is gated by a backoff
    const Request& r = requests_.at(ticket->id);
    const std::string subject = "request " + std::to_string(ticket->id);

    // Fastest free backend (ties broken by the deterministic slot order).
    std::string best = free.front();
    double best_svc = service_time(best, r.batch);
    for (std::size_t i = 1; i < free.size(); ++i) {
      const double svc = service_time(free[i], r.batch);
      if (svc < best_svc) {
        best = free[i];
        best_svc = svc;
      }
    }
    // The tenant surcharge is backend-independent, so it never changes the
    // choice of slot — only feasibility and the modeled finish time.
    best_svc += tenant_overhead(r.client);

    if (t + best_svc > ticket->deadline_s) {
      ++report_.cancelled;
      log_.add(t, ServeEventKind::kCancelled, subject,
               "infeasible at dispatch: fastest backend needs " + ms(best_svc) +
                   ", deadline in " + ms(ticket->deadline_s - t));
      continue;
    }

    CircuitBreaker& breaker = breakers_.at(best);
    breaker.on_dispatch();
    bool ok = false;
    std::string why = "transient transfer error";
    try {
      ok = sim_.try_transfer(cfg_.ingress, best);
    } catch (const NotFound&) {
      why = "fabric partition";
    }
    if (!ok) {
      log_.add(t, ServeEventKind::kTransientFault, subject,
               cfg_.ingress + "->" + best + " request transfer failed (" + why + ")");
      if (const auto tr = breaker.record_failure(t, why + " to " + best)) {
        log_transition(t, best, *tr);
      }
      retry_or_fail(t, *ticket, "transfer to " + best + " failed");
      continue;
    }

    in_flight_[best] = InFlight{*ticket, best, t, t + best_svc, sim_.gops_scale(best)};
    log_.add(t, ServeEventKind::kDispatched, subject,
             best + " (" + cfg_.variants[rung().variant].name + "), service " + ms(best_svc),
             best_svc);
  }
}

void Server::retry_or_fail(double t, Ticket ticket, const std::string& reason) {
  const int attempt = ++attempts_[ticket.id];
  const Request& r = requests_.at(ticket.id);
  const std::string subject = "request " + std::to_string(ticket.id);
  double& tokens = retry_tokens_[r.client];

  if (tokens < 1.0) {
    ++report_.failed;
    log_.add(t, ServeEventKind::kFailed, subject,
             reason + "; client " + r.client + " retry budget empty");
    return;
  }
  const double backoff = rng_.backoff_s(cfg_.backoff_base_s, cfg_.backoff_cap_s, attempt - 1,
                                        cfg_.backoff_floor_s);
  const double ready = t + backoff;
  if (ready >= r.deadline_s) {
    ++report_.failed;
    log_.add(t, ServeEventKind::kFailed, subject, reason + "; no time left to retry");
    return;
  }
  if (queue_.full()) {
    ++report_.failed;
    log_.add(t, ServeEventKind::kFailed, subject, reason + "; queue full on retry");
    return;
  }
  tokens -= 1.0;
  ++report_.retries;
  ticket.not_before_s = ready;
  ticket.enqueued_s = t;
  queue_.push(ticket);
  report_.max_queue_depth = std::max(report_.max_queue_depth, queue_.depth());
  log_.add(t, ServeEventKind::kRetry, subject,
           "attempt " + std::to_string(attempt) + ", backoff " + ms(backoff), backoff);
}

void Server::execute_request(double t, const Ticket& ticket, const std::string& slot) {
  if (!cfg_.execute) return;
  const std::size_t variant = rung().variant;
  const Graph& g = *cfg_.variants[variant].graph;
  const auto inputs = g.inputs();
  VEDLIOT_CHECK(inputs.size() == 1, "execute mode needs a single-input variant graph");
  const Shape& shape = g.node(inputs.front()).out_shape;
  Rng in_rng(cfg_.seed ^ (ticket.id * 0x9E3779B97F4A7C15ull));
  const Tensor input(shape, in_rng.normal_vector(static_cast<std::size_t>(shape.numel())));
  const Tensor output = sessions_[variant]->run_single(input);
  if (!cfg_.robustness) return;
  const safety::CheckResult verdict = cfg_.robustness->submit(input, output);
  if (verdict == safety::CheckResult::kCheckedFaulty) {
    ++report_.quality_degraded;
    log_.add(t, ServeEventKind::kQualityDegraded, "request " + std::to_string(ticket.id),
             "robustness check verdict: checked-faulty (divergence " +
                 std::to_string(cfg_.robustness->last_divergence()) + ")",
             cfg_.robustness->last_divergence());
    if (cfg_.store) {
      // Don't wait for the next scrub sweep: localize now with a full scan
      // and self-heal, quarantining the backend that served the divergent
      // response while its weights rewrite.
      suspect_slot_ = slot;
      const auto hits = scrubbers_[variant]->full_scan();
      report_.scrub_hits += hits.size();
      for (const auto& h : hits) {
        log_.add(t, ServeEventKind::kScrubHit, "variant " + cfg_.variants[variant].name,
                 "node '" + h.node_name + "' tensor " + std::to_string(h.tensor) +
                     " crc mismatch (full scan after checked-faulty)",
                 static_cast<double>(h.tensor));
      }
      recover(t, variant, hits, probation_[variant] > 0);
    }
  }
}

void Server::submit_ota(double t, std::size_t variant, safety::OtaPackage update) {
  VEDLIOT_CHECK(!ran_, "submit all OTA pushes before run()");
  VEDLIOT_CHECK(cfg_.store != nullptr, "OTA pushes need integrity mode (ServerConfig::store)");
  VEDLIOT_CHECK(variant < cfg_.variants.size(), "OTA push names unknown variant");
  VEDLIOT_CHECK(t >= 0, "OTA time must be >= 0");
  PendingOta ota;
  ota.time_s = t;
  ota.variant = variant;
  ota.update = std::move(update);
  const auto pos = std::upper_bound(
      otas_.begin(), otas_.end(), ota.time_s,
      [](double time, const PendingOta& o) { return time < o.time_s; });
  otas_.insert(pos, std::move(ota));
}

void Server::apply_memory_fault(double t, const platform::FaultEvent& e) {
  if (!cfg_.store) return;
  if (std::find(cfg_.backends.begin(), cfg_.backends.end(), e.slot) == cfg_.backends.end()) {
    return;
  }
  const std::size_t variant = rung().variant;
  const auto bits = static_cast<std::size_t>(e.magnitude);
  safety::FaultInjector injector(fault_rng_);
  injector.flip_weight_bits(*deployed_[variant], bits, /*include_bias=*/true);
  rebuild_session(variant);
  ++report_.memory_faults;
  suspect_slot_ = e.slot;
  log_.add(t, ServeEventKind::kMemoryFault, "backend " + e.slot,
           std::to_string(bits) + " weight bit(s) flipped in deployed " +
               cfg_.variants[variant].name,
           static_cast<double>(bits));
}

void Server::corrupt_next_ota() {
  for (std::size_t i = next_ota_; i < otas_.size(); ++i) {
    if (!otas_[i].corrupted) {
      otas_[i].corrupted = true;
      return;
    }
  }
}

void Server::rebuild_session(std::size_t variant) {
  if (!cfg_.execute) return;
  const ModelVariant& v = cfg_.variants[variant];
  runtime::RunOptions opts;
  opts.exec = rung().variant == variant ? rung().exec : cfg_.ladder.front().exec;
  sessions_[variant] = v.quantized ? runtime::make_quantized_session(*deployed_[variant], opts)
                                   : runtime::make_session(*deployed_[variant], opts);
}

void Server::quarantine(double t, const std::string& slot, const std::string& why) {
  const auto it = breakers_.find(slot);
  if (it == breakers_.end()) return;
  ++report_.quarantines;
  log_.add(t, ServeEventKind::kQuarantine, "backend " + slot, why);
  if (const auto tr = it->second.force_open(t, why)) log_transition(t, slot, *tr);
}

void Server::recover(double t, std::size_t variant,
                     std::span<const safety::WeightScrubber::Hit> hits, bool in_probation) {
  const ModelVariant& v = cfg_.variants[variant];
  if (!suspect_slot_.empty()) {
    quarantine(t, suspect_slot_,
               "weight corruption on deployed " + v.name + "; reloading from golden store");
    suspect_slot_.clear();
  }

  if (in_probation && cfg_.store->can_rollback(v.name)) {
    // Corruption this soon after a commit means the freshly-written image
    // itself is bad — a bad push, not an SEU. Revert the whole update.
    const auto rep = cfg_.store->rollback(v.name);
    cfg_.store->restore(v.name, *deployed_[variant]);
    rebuild_session(variant);
    if (cfg_.robustness) cfg_.robustness->replace_golden(*deployed_[variant]);
    scrubbers_[variant]->rebaseline();
    probation_[variant] = 0;
    ++report_.ota_rolled_back;
    log_.add(t, ServeEventKind::kOtaRolledBack, "ota " + v.name,
             "corruption inside probation window; " + rep.detail,
             static_cast<double>(rep.to_version));
    return;
  }

  std::size_t rewritten = 0;
  try {
    rewritten = cfg_.store->repair(v.name, *deployed_[variant], hits);
  } catch (const Error&) {
    // Localized repair did not hold (sticky storage, diverged shapes):
    // fall back to a full golden restore.
    rewritten = cfg_.store->restore(v.name, *deployed_[variant]);
  }
  rebuild_session(variant);
  scrubbers_[variant]->rebaseline();
  ++report_.model_reloads;
  log_.add(t, ServeEventKind::kModelReloaded, "variant " + v.name,
           std::to_string(rewritten) + " tensor(s) re-materialized from golden v" +
               std::to_string(cfg_.store->version(v.name)),
           static_cast<double>(rewritten));
}

void Server::scrub_tick(double t) {
  for (std::size_t vi = 0; vi < deployed_.size(); ++vi) {
    const bool in_probation = probation_[vi] > 0;
    if (in_probation) --probation_[vi];
    const auto hits = scrubbers_[vi]->tick();
    if (hits.empty()) continue;
    report_.scrub_hits += hits.size();
    for (const auto& h : hits) {
      log_.add(t, ServeEventKind::kScrubHit, "variant " + cfg_.variants[vi].name,
               "node '" + h.node_name + "' tensor " + std::to_string(h.tensor) +
                   " crc mismatch (scrub sweep)",
               static_cast<double>(h.tensor));
    }
    recover(t, vi, hits, in_probation);
  }
}

void Server::process_ota(double t, PendingOta ota) {
  const ModelVariant& v = cfg_.variants[ota.variant];
  if (ota.corrupted) {
    // In-transit corruption (a scheduled kOtaCorrupt marker): flip a few
    // payload bytes. Silent by design — detection is the store's job.
    for (int i = 0; i < 3; ++i) {
      const auto at = static_cast<std::size_t>(fault_rng_.uniform_int(
          0, static_cast<std::int64_t>(ota.update.package.size()) - 1));
      ota.update.package[at] ^=
          static_cast<std::uint8_t>(1 + fault_rng_.uniform_int(0, 254));
    }
  }
  ++report_.ota_staged;
  log_.add(t, ServeEventKind::kOtaStaged, "ota " + v.name,
           "payload " + std::to_string(ota.update.package.size()) + " bytes, verifying",
           static_cast<double>(ota.update.package.size()));

  const auto rep = cfg_.store->push(v.name, ota.update);
  switch (rep.outcome) {
    case safety::OtaOutcome::kCommitted:
      cfg_.store->restore(v.name, *deployed_[ota.variant]);
      rebuild_session(ota.variant);
      if (cfg_.robustness) cfg_.robustness->replace_golden(*deployed_[ota.variant]);
      scrubbers_[ota.variant]->rebaseline();
      probation_[ota.variant] =
          scrubbers_[ota.variant]->ticks_per_sweep() * cfg_.ota_probation_sweeps;
      ++report_.ota_committed;
      log_.add(t, ServeEventKind::kOtaCommitted, "ota " + v.name,
               "v" + std::to_string(rep.from_version) + " -> v" + std::to_string(rep.to_version) +
                   "; " + rep.detail,
               static_cast<double>(rep.to_version));
      break;
    case safety::OtaOutcome::kRejected:
      ++report_.ota_rejected;
      log_.add(t, ServeEventKind::kOtaRejected, "ota " + v.name, rep.detail,
               static_cast<double>(rep.from_version));
      break;
    case safety::OtaOutcome::kRolledBack:
      throw Error("store.push must not report rolled-back");
  }
}

void Server::finish(double t, InFlight f) {
  const Request& r = requests_.at(f.ticket.id);
  const std::string subject = "request " + std::to_string(f.ticket.id);
  CircuitBreaker& breaker = breakers_.at(f.slot);

  if (!sim_.alive(f.slot)) {
    log_.add(t, ServeEventKind::kBackendFailure, subject, f.slot + " died mid-request");
    if (const auto tr = breaker.record_failure(t, f.slot + " died mid-request")) {
      log_transition(t, f.slot, *tr);
    }
    retry_or_fail(t, f.ticket, f.slot + " died mid-request");
    return;
  }

  bool ok = false;
  std::string why = "transient transfer error";
  try {
    ok = sim_.try_transfer(f.slot, cfg_.ingress);
  } catch (const NotFound&) {
    why = "fabric partition";
  }
  if (!ok) {
    log_.add(t, ServeEventKind::kTransientFault, subject,
             f.slot + "->" + cfg_.ingress + " response transfer failed (" + why + ")");
    if (const auto tr = breaker.record_failure(t, why + " from " + f.slot)) {
      log_transition(t, f.slot, *tr);
    }
    retry_or_fail(t, f.ticket, "response from " + f.slot + " lost");
    return;
  }

  if (const auto tr = breaker.record_success(t)) log_transition(t, f.slot, *tr);
  execute_request(t, f.ticket, f.slot);

  const double latency = t - r.arrival_s;
  if (cfg_.metrics) {
    cfg_.metrics->histogram("vedliot.serve.latency_s", 0.0, 0.5).add(latency);
    cfg_.metrics->histogram("vedliot.serve.queue_wait_s", 0.0, 0.5)
        .add(f.started_s - r.arrival_s);
  }
  if (t <= r.deadline_s) {
    ++report_.completed;
    log_.add(t, ServeEventKind::kCompleted, subject,
             f.slot + ", latency " + ms(latency), latency);
  } else {
    ++report_.deadline_missed;
    log_.add(t, ServeEventKind::kDeadlineMiss, subject,
             f.slot + ", " + ms(t - r.deadline_s) + " past deadline", t - r.deadline_s);
  }
}

ServeReport Server::run(double duration_s) {
  VEDLIOT_CHECK(!ran_, "a Server drives exactly one run");
  VEDLIOT_CHECK(duration_s > 0, "run duration must be positive");
  ran_ = true;

  obs::ScopedSpan run_span;
  if (cfg_.trace) {
    run_span = cfg_.trace->span("serve.run", "vedliot.serve.run");
    run_span.attr("duration_s", duration_s);
    run_span.attr("backends", static_cast<double>(cfg_.backends.size()));
    run_span.attr("offered", static_cast<double>(arrivals_.size()));
  }

  std::stable_sort(arrivals_.begin(), arrivals_.end(), [](const Request& a, const Request& b) {
    if (a.arrival_s != b.arrival_s) return a.arrival_s < b.arrival_s;
    return a.id < b.id;
  });

  long tick_idx = 1;
  while (true) {
    // Next event: completion <= control tick <= arrival on equal times.
    // Scheduled platform faults are wakeups of their own, so a throttle
    // takes effect at its scheduled time (stretching in-flight work below)
    // rather than at the next natural event. Ticks stop at the horizon;
    // the tail of in-flight work still drains.
    double t_completion = kInf;
    std::string done_slot;
    for (const auto& [slot, f] : in_flight_) {
      if (f.finish_s < t_completion) {
        t_completion = f.finish_s;
        done_slot = slot;
      }
    }
    const double tick_at = static_cast<double>(tick_idx) * cfg_.control_period_s;
    const double t_tick = tick_at <= duration_s ? tick_at : kInf;
    const double t_arrival =
        next_arrival_ < arrivals_.size() ? arrivals_[next_arrival_].arrival_s : kInf;
    const double t_ota = next_ota_ < otas_.size() ? otas_[next_ota_].time_s : kInf;
    double t_fault = kInf;
    if (t_completion < kInf || t_tick < kInf || t_arrival < kInf || t_ota < kInf) {
      // Only wake for faults while the run is still live; trailing
      // schedule entries past the last event are irrelevant.
      t_fault = sim_.next_fault_time().value_or(kInf);
    }

    const double t = std::min({t_completion, t_tick, t_arrival, t_ota, t_fault});
    if (!std::isfinite(t)) break;

    // Thermal events landing on a busy backend stretch (or compress) the
    // remaining service time of its in-flight request — the one way an
    // accepted, feasible request can still miss its deadline. A finish due
    // exactly now is past its compute and cannot stretch, so the chosen
    // next event stays valid.
    for (const platform::FaultEvent& e : sim_.advance_to(t)) {
      // Integrity markers: the damage is ours to apply (see faults.hpp).
      if (e.kind == platform::FaultKind::kMemoryFault) {
        apply_memory_fault(t, e);
        continue;
      }
      if (e.kind == platform::FaultKind::kOtaCorrupt) {
        corrupt_next_ota();
        continue;
      }
      if (e.kind != platform::FaultKind::kThermalThrottle &&
          e.kind != platform::FaultKind::kThermalRecover) {
        continue;
      }
      const auto it = in_flight_.find(e.slot);
      if (it == in_flight_.end()) continue;
      InFlight& f = it->second;
      const double new_scale = sim_.gops_scale(e.slot);
      if (f.finish_s > t && new_scale != f.gops_scale) {
        f.finish_s = t + (f.finish_s - t) * (f.gops_scale / new_scale);
        f.gops_scale = new_scale;
      }
    }

    // t is the minimum, so X <= t means X fired exactly now; a fault-only
    // wakeup falls through (its effect was applied above).
    if (t_completion <= t) {
      InFlight f = in_flight_.at(done_slot);
      in_flight_.erase(done_slot);
      finish(t, f);
      try_dispatch(t);
    } else if (t_tick <= t) {
      control_tick(t);
      ++tick_idx;
    } else if (t_arrival <= t) {
      admit(arrivals_[next_arrival_++]);
      try_dispatch(t);
    } else if (t_ota <= t) {
      process_ota(t, std::move(otas_[next_ota_]));
      ++next_ota_;
    }
  }

  // Anything still queued (gated behind a backoff past the horizon) is
  // accounted, not dropped silently.
  const double t_end = std::max(duration_s, sim_.now());
  while (const auto leftover = queue_.pop(kInf)) {
    ++report_.cancelled;
    log_.add(t_end, ServeEventKind::kCancelled, "request " + std::to_string(leftover->id),
             "run ended with request still queued");
  }

  report_.events = log_.take();
  report_.final_brownout_level = level_;
  if (cfg_.robustness) {
    report_.integrity_checks = cfg_.robustness->checks_run();
    report_.integrity_faults = cfg_.robustness->faults_detected();
  }
  if (cfg_.store) {
    // End-state audit: a healed server leaves no corrupt tensor behind.
    for (auto& scrubber : scrubbers_) {
      report_.dirty_at_end += scrubber->full_scan().size();
    }
  }
  if (cfg_.trace) {
    run_span.attr("events", static_cast<double>(report_.events.size()));
    run_span.attr("completed", static_cast<double>(report_.completed));
    run_span.attr("shed", static_cast<double>(report_.shed));
    run_span.attr("goodput", report_.goodput());
  }
  return report_;
}

}  // namespace vedliot::serve
