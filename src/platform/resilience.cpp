#include "platform/resilience.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "obs/json.hpp"
#include "platform/resource_manager.hpp"

namespace vedliot::platform {

namespace {

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace

std::string_view event_name(ResilienceEventKind kind) {
  switch (kind) {
    case ResilienceEventKind::kFaultInjected: return "fault-injected";
    case ResilienceEventKind::kHeartbeatMiss: return "heartbeat-miss";
    case ResilienceEventKind::kFaultDetected: return "fault-detected";
    case ResilienceEventKind::kTransientFault: return "transient-fault";
    case ResilienceEventKind::kRetry: return "retry";
    case ResilienceEventKind::kTransferTimeout: return "transfer-timeout";
    case ResilienceEventKind::kFailover: return "failover";
    case ResilienceEventKind::kDegradedPrecision: return "degraded-precision";
    case ResilienceEventKind::kDegradedStages: return "degraded-stages";
    case ResilienceEventKind::kRecovered: return "recovered";
    case ResilienceEventKind::kUnrecoverable: return "unrecoverable";
  }
  throw InvalidArgument("unknown resilience event kind");
}

double ResilienceReport::mean_detection_latency_s() const { return mean(detection_latencies_s); }

double ResilienceReport::mean_recovery_time_s() const { return mean(recovery_times_s); }

double ResilienceReport::degraded_throughput_ratio() const {
  if (healthy_plan.throughput_fps <= 0) return 0.0;
  return final_plan.throughput_fps / healthy_plan.throughput_fps;
}

std::string ResilienceReport::to_json() const {
  std::string out = "{\"record\":\"resilience-report\"";
  out += ",\"pipeline_alive\":" + std::string(pipeline_alive ? "true" : "false");
  out += ",\"final_dtype\":\"" + obs::json_escape(dtype_name(final_dtype)) + "\"";
  out += ",\"final_stages\":" + obs::json_number(static_cast<double>(final_stages));
  out += ",\"frames_completed\":" + obs::json_number(static_cast<double>(frames_completed));
  out += ",\"frames_dropped\":" + obs::json_number(static_cast<double>(frames_dropped));
  out += ",\"transfer_retries\":" + obs::json_number(static_cast<double>(transfer_retries));
  out += ",\"failovers\":" + obs::json_number(static_cast<double>(failovers));
  out += ",\"degradations\":" + obs::json_number(static_cast<double>(degradations));
  out += ",\"mean_detection_latency_s\":" + obs::json_number(mean_detection_latency_s());
  out += ",\"mean_recovery_time_s\":" + obs::json_number(mean_recovery_time_s());
  out += ",\"degraded_throughput_ratio\":" + obs::json_number(degraded_throughput_ratio());
  out += ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ResilienceEvent& e = events[i];
    if (i) out += ",";
    out += "{\"time_s\":" + obs::json_number(e.time_s);
    out += ",\"kind\":\"" + obs::json_escape(event_name(e.kind)) + "\"";
    out += ",\"subject\":\"" + obs::json_escape(e.subject) + "\"";
    out += ",\"detail\":\"" + obs::json_escape(e.detail) + "\"";
    out += ",\"value\":" + obs::json_number(e.value) + "}";
  }
  out += "]}";
  return out;
}

ResilienceController::ResilienceController(const Graph& g, PlatformSimulator& sim,
                                           std::vector<std::string> slots,
                                           std::size_t num_stages, DType dtype,
                                           ResilienceConfig config)
    : graph_(g),
      sim_(sim),
      slots_(std::move(slots)),
      preferred_stages_(num_stages),
      preferred_dtype_(dtype),
      cfg_(config),
      rng_(config.seed),
      dtype_(dtype),
      stages_(num_stages),
      health_(slots_, HealthConfig{config.heartbeat_miss_threshold}),
      log_("vedliot.platform.resilience", config.trace, nullptr) {
  VEDLIOT_CHECK(!slots_.empty(), "resilience controller needs at least one slot");
  VEDLIOT_CHECK(cfg_.heartbeat_period_s > 0, "heartbeat period must be positive");
  VEDLIOT_CHECK(cfg_.heartbeat_miss_threshold >= 1, "miss threshold must be >= 1");
  VEDLIOT_CHECK(cfg_.max_transfer_attempts >= 1, "need at least one transfer attempt");
  cfg_.max_transfer_attempts = std::min(cfg_.max_transfer_attempts, kTransferAttemptCap);
  VEDLIOT_CHECK(cfg_.latency_budget_s > 0, "latency budget must be positive");
  VEDLIOT_CHECK(cfg_.redeploy_gbps > 0, "redeploy bandwidth must be positive");
}

void ResilienceController::report_verdict(const std::string& slot,
                                          safety::CheckResult verdict, double time_s) {
  VEDLIOT_CHECK(time_s >= 0, "verdict time must be non-negative");
  if (verdict != safety::CheckResult::kCheckedFaulty) return;
  const auto pos = std::upper_bound(
      verdicts_.begin(), verdicts_.end(), time_s,
      [](double t, const PendingVerdict& v) { return t < v.time_s; });
  verdicts_.insert(pos, PendingVerdict{time_s, slot});
}

void ResilienceController::note_injected(double t, const std::vector<FaultEvent>& applied) {
  for (const auto& e : applied) {
    std::string detail;
    switch (e.kind) {
      case FaultKind::kLinkDegrade:
        detail = e.magnitude < 1.0 ? "bandwidth x" + std::to_string(e.magnitude)
                                   : "bandwidth restored";
        break;
      case FaultKind::kThermalThrottle:
        detail = "effective GOPS x" + std::to_string(e.magnitude);
        break;
      default:
        break;
    }
    log_.add(e.time_s, ResilienceEventKind::kFaultInjected, e.subject(),
             std::string(fault_kind_name(e.kind)) + (detail.empty() ? "" : ", " + detail));

    switch (e.kind) {
      case FaultKind::kModuleCrash:
      case FaultKind::kLinkDrop:
        // Silent failures: only heartbeats / failing transfers reveal them.
        undetected_.emplace(e.subject(), e.time_s);
        break;
      case FaultKind::kThermalThrottle:
      case FaultKind::kLinkDegrade: {
        // Degradations are visible through platform telemetry at the next
        // tick: detect immediately and rebalance the plan.
        log_.add(t, ResilienceEventKind::kFaultDetected, e.subject(),
                 "telemetry: " + std::string(fault_kind_name(e.kind)));
        report_.detection_latencies_s.push_back(t - e.time_s);
        if (detect_mark_ < 0) detect_mark_ = t;
        need_replan_ = true;
        replan_reason_ = std::string(fault_kind_name(e.kind)) + " on " + e.subject();
        break;
      }
      case FaultKind::kModuleRestart:
        health_.mark_up(e.slot);
        undetected_.erase(e.subject());
        need_replan_ = true;
        replan_reason_ = "capacity restored: " + e.subject();
        break;
      case FaultKind::kThermalRecover:
      case FaultKind::kLinkRestore:
        need_replan_ = true;
        replan_reason_ = "capacity restored: " + e.subject();
        break;
      case FaultKind::kLinkPartition:
        // A partition severs every link on the slot at once: silent, like a
        // link drop — heartbeats / failing transfers reveal it.
        undetected_.emplace(e.subject(), e.time_s);
        break;
      case FaultKind::kLinkHeal:
        undetected_.erase(e.subject());
        need_replan_ = true;
        replan_reason_ = "capacity restored: " + e.subject();
        break;
      case FaultKind::kMemoryFault:
      case FaultKind::kOtaCorrupt:
      case FaultKind::kPacketDup:
      case FaultKind::kPacketReorder:
        // Model-integrity / transport-layer markers owned by the serving
        // and OTA layers; platform capacity is unchanged, nothing to
        // replan around.
        break;
    }
  }
}

void ResilienceController::heartbeat_tick(double t) {
  for (const HealthBeat& beat : health_.tick(sim_)) {
    // Restarts reach the controller as module-restart fault events (which
    // mark_up the monitor before this tick), so recovered beats only occur
    // when a slot revives without one; the replan is driven by the event.
    if (beat.recovered) continue;
    log_.add(t, ResilienceEventKind::kHeartbeatMiss, "slot " + beat.slot,
             std::to_string(beat.misses) + "/" + std::to_string(cfg_.heartbeat_miss_threshold),
             static_cast<double>(beat.misses));
    if (!beat.declared_down) continue;

    const std::string subject = "slot " + beat.slot;
    std::string detail =
        "declared dead after " + std::to_string(beat.misses) + " missed heartbeats";
    if (const auto it = undetected_.find(subject); it != undetected_.end()) {
      report_.detection_latencies_s.push_back(t - it->second);
      undetected_.erase(it);
    }
    log_.add(t, ResilienceEventKind::kFaultDetected, subject, detail,
             static_cast<double>(beat.misses));
    if (detect_mark_ < 0) detect_mark_ = t;

    const bool in_plan =
        plan_valid_ && std::any_of(plan_.stages.begin(), plan_.stages.end(),
                                   [&](const Stage& st) { return st.slot == beat.slot; });
    if (in_plan || !plan_valid_) {
      need_replan_ = true;
      replan_reason_ = "module crash on " + beat.slot;
    }
  }
}

void ResilienceController::verdict_tick(double t) {
  while (!verdicts_.empty() && verdicts_.front().time_s <= t) {
    const PendingVerdict v = verdicts_.front();
    verdicts_.pop_front();
    if (quarantined_.count(v.slot)) continue;
    quarantined_.insert(v.slot);
    log_.add(t, ResilienceEventKind::kFaultDetected, "slot " + v.slot,
             "robustness service verdict: checked-faulty (model corrupted), slot quarantined");
    if (detect_mark_ < 0) detect_mark_ = t;
    const bool in_plan =
        plan_valid_ && std::any_of(plan_.stages.begin(), plan_.stages.end(),
                                   [&](const Stage& st) { return st.slot == v.slot; });
    if (in_plan || !plan_valid_) {
      need_replan_ = true;
      replan_reason_ = "corrupted model on " + v.slot;
    }
  }
}

bool ResilienceController::capacity_admits(const std::vector<std::string>& avail,
                                           DType dt) const {
  if (!plan_valid_) return true;
  // Admission control reusing the workload scheduler: every stage of the
  // current plan becomes a recurring Workload at the pipeline rate; the
  // stages on failed slots must migrate onto the survivors.
  const double interval = std::max(plan_.pipeline_interval_s, 1e-9);
  std::vector<Workload> workloads;
  std::vector<WorkloadPlacement> placements;
  for (std::size_t i = 0; i < plan_.stages.size(); ++i) {
    const Stage& st = plan_.stages[i];
    Workload w;
    w.name = "stage" + std::to_string(i);
    w.ops = st.ops;
    w.traffic_bytes = st.weight_bytes + st.boundary_bytes;
    w.weight_bytes = st.weight_bytes;
    w.dtype = dt;
    // Half the pipeline rate and the full frame budget: a coarse gate that
    // asks "can the survivors host this at all", not "is it optimal".
    w.rate_hz = 0.5 / interval;
    w.latency_budget_s = cfg_.latency_budget_s;
    workloads.push_back(w);

    WorkloadPlacement p;
    p.workload = w.name;
    p.slot = st.slot;
    p.module = st.module;
    p.latency_s = st.compute_s;
    p.utilization = st.compute_s / interval;
    placements.push_back(p);
  }

  std::set<std::string> ok(avail.begin(), avail.end());
  std::vector<std::string> failed;
  for (const auto& st : plan_.stages) {
    if (!ok.count(st.slot)) failed.push_back(st.slot);
  }
  if (failed.empty()) return true;

  try {
    ResourceManager rm(sim_.chassis());
    for (const auto& [slot, scale] : sim_.gops_scales()) {
      if (ok.count(slot)) rm.set_capacity_scale(slot, scale);
    }
    std::vector<WorkloadPlacement> current = placements;
    for (const auto& slot : failed) {
      current = rm.migrate(current, workloads, slot);
    }
    return true;
  } catch (const Error&) {
    return false;
  }
}

void ResilienceController::recover(double t, const std::string& reason) {
  need_replan_ = false;

  std::vector<std::string> avail;
  for (const auto& slot : sim_.alive_of(slots_)) {
    if (!quarantined_.count(slot)) avail.push_back(slot);
  }
  if (avail.empty()) {
    log_.add(t, ResilienceEventKind::kUnrecoverable, "pipeline",
             "no surviving slot left (" + reason + ")");
    plan_valid_ = false;
    report_.pipeline_alive = false;
    detect_mark_ = -1;
    return;
  }

  // Precision ladder: current dtype first, then the configured fallbacks.
  std::vector<DType> ladder{preferred_dtype_};
  for (DType dt : cfg_.precision_ladder) {
    if (std::find(ladder.begin(), ladder.end(), dt) == ladder.end()) ladder.push_back(dt);
  }

  PlanOptions opts;
  opts.slot_gops_scale = sim_.gops_scales();
  opts.trace = cfg_.trace;

  struct Choice {
    DistributedPlan plan;
    DType dtype;
    std::size_t stages;
  };
  std::optional<Choice> chosen;
  // Fallback when no plan passes admission + budget: the pipeline keeps
  // running degraded, so prefer the highest steady-state throughput.
  std::optional<Choice> best_any;

  const std::size_t stage_cap = std::min(preferred_stages_, avail.size() * 2);
  for (DType dt : ladder) {
    const bool admitted = capacity_admits(avail, dt);
    if (!admitted) {
      log_.add(t, ResilienceEventKind::kFailover, "pipeline",
               "capacity check: survivors cannot host all stages at " +
                   std::string(dtype_name(dt)));
    }
    for (std::size_t s = stage_cap; s >= 1; --s) {
      DistributedPlan p;
      try {
        p = plan_distributed_inference(graph_, sim_.chassis(), sim_.fabric(), avail, s, dt,
                                       opts);
      } catch (const Error&) {
        continue;
      }
      if (!best_any || p.throughput_fps > best_any->plan.throughput_fps) {
        best_any = Choice{p, dt, s};
      }
      if (admitted && p.latency_s <= cfg_.latency_budget_s) {
        chosen = Choice{p, dt, s};
        break;
      }
    }
    if (chosen) break;
  }

  bool budget_missed = false;
  if (!chosen) {
    if (!best_any) {
      log_.add(t, ResilienceEventKind::kUnrecoverable, "pipeline",
               "no feasible plan on survivors (" + reason + ")");
      plan_valid_ = false;
      report_.pipeline_alive = false;
      detect_mark_ = -1;
      return;
    }
    chosen = best_any;  // degraded below budget targets: run what we can
    budget_missed = true;
  }

  // Failover bookkeeping: stages leave every failed slot of the old plan.
  if (plan_valid_) {
    std::set<std::string> ok(avail.begin(), avail.end());
    std::set<std::string> gone;
    for (const auto& st : plan_.stages) {
      if (!ok.count(st.slot)) gone.insert(st.slot);
    }
    for (const auto& slot : gone) {
      ++report_.failovers;
      log_.add(t, ResilienceEventKind::kFailover, "slot " + slot,
               "stages moved to surviving slots (" + reason + ")");
    }
  }
  if (chosen->dtype != dtype_) {
    ++report_.degradations;
    log_.add(t, ResilienceEventKind::kDegradedPrecision, "pipeline",
             std::string(dtype_name(dtype_)) + " -> " + std::string(dtype_name(chosen->dtype)) +
                 (budget_missed ? " (admission or latency budget not met)" : ""));
  }
  if (chosen->stages != stages_) {
    if (chosen->stages < stages_) ++report_.degradations;
    log_.add(t,
             chosen->stages < stages_ ? ResilienceEventKind::kDegradedStages
                                      : ResilienceEventKind::kRecovered,
             "pipeline",
             std::to_string(stages_) + " -> " + std::to_string(chosen->stages) + " stages" +
                 (budget_missed ? " (admission or latency budget not met)" : ""));
  }

  // Redeploy cost: stage weights ship to every slot whose assignment
  // changed, over the management network, plus a restart latency each.
  double moved_bytes = 0;
  std::size_t moved = 0;
  for (std::size_t i = 0; i < chosen->plan.stages.size(); ++i) {
    // A stage only stays in place if its slot, its node range AND the
    // precision are all unchanged; otherwise its weights must redeploy.
    const bool same = plan_valid_ && i < plan_.stages.size() &&
                      plan_.stages[i].slot == chosen->plan.stages[i].slot &&
                      plan_.stages[i].first == chosen->plan.stages[i].first &&
                      plan_.stages[i].last == chosen->plan.stages[i].last &&
                      chosen->dtype == dtype_;
    if (!same) {
      moved_bytes += chosen->plan.stages[i].weight_bytes;
      ++moved;
    }
  }
  const double redeploy_s = static_cast<double>(moved) * cfg_.restart_latency_s +
                            moved_bytes * 8.0 / (cfg_.redeploy_gbps * 1e9);
  stall_until_ = std::max(stall_until_, t + redeploy_s);

  if (detect_mark_ >= 0) {
    report_.recovery_times_s.push_back(t - detect_mark_ + redeploy_s);
    detect_mark_ = -1;
  }

  plan_ = chosen->plan;
  dtype_ = chosen->dtype;
  stages_ = chosen->stages;
  plan_valid_ = true;
  report_.pipeline_alive = true;  // back from an unrecoverable period, if any

  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "%zu stages on %zu slots at %s: latency %.2f ms, %.1f fps (redeploy %.1f ms)",
                chosen->stages, avail.size(), std::string(dtype_name(chosen->dtype)).c_str(),
                plan_.latency_s * 1e3, plan_.throughput_fps, redeploy_s * 1e3);
  log_.add(t + redeploy_s, ResilienceEventKind::kRecovered, "pipeline", detail,
           plan_.throughput_fps);
}

bool ResilienceController::process_one_frame(double t) {
  for (const auto& st : plan_.stages) {
    if (!sim_.alive(st.slot)) return false;  // in-flight work on a dead module
  }
  for (std::size_t i = 0; i + 1 < plan_.stages.size(); ++i) {
    const std::string& from = plan_.stages[i].slot;
    const std::string& to = plan_.stages[i + 1].slot;
    const std::string subject = "link " + from + "<->" + to;
    int attempt = 0;
    while (true) {
      bool ok = false;
      try {
        ok = sim_.try_transfer(from, to);
      } catch (const NotFound&) {
        std::string detail = "fabric partition hit mid-frame";
        if (!undetected_.empty()) {
          // Attribute to the earliest outstanding silent link fault.
          auto best = undetected_.end();
          for (auto it = undetected_.begin(); it != undetected_.end(); ++it) {
            if (it->first.rfind("link ", 0) != 0) continue;
            if (best == undetected_.end() || it->second < best->second) best = it;
          }
          if (best != undetected_.end()) {
            report_.detection_latencies_s.push_back(t - best->second);
            undetected_.erase(best);
          }
        }
        log_.add(t, ResilienceEventKind::kFaultDetected, subject, detail);
        if (detect_mark_ < 0) detect_mark_ = t;
        need_replan_ = true;
        replan_reason_ = "fabric partition between " + from + " and " + to;
        return false;
      }
      if (ok) break;
      ++attempt;
      ++report_.transfer_retries;
      log_.add(t, ResilienceEventKind::kTransientFault, subject,
               "attempt " + std::to_string(attempt) + " failed");
      if (attempt >= cfg_.max_transfer_attempts) {
        log_.add(t, ResilienceEventKind::kTransferTimeout, subject,
                 "gave up after " + std::to_string(attempt) + " attempts; frame dropped");
        return false;
      }
      const double wait = rng_.backoff_s(cfg_.backoff_base_s, cfg_.backoff_cap_s, attempt - 1);
      log_.add(t, ResilienceEventKind::kRetry, subject,
               "backing off " + std::to_string(wait * 1e3) + " ms", wait);
    }
  }
  return true;
}

void ResilienceController::process_frames(double t) {
  const double interval = plan_valid_
                              ? std::max(plan_.pipeline_interval_s, 1e-9)
                              : std::max(report_.healthy_plan.pipeline_interval_s, 1e-9);
  frame_credit_ += cfg_.heartbeat_period_s / interval;
  while (frame_credit_ >= 1.0) {
    frame_credit_ -= 1.0;
    if (!plan_valid_ || t < stall_until_) {
      ++report_.frames_dropped;  // pipeline down or still redeploying
      continue;
    }
    if (process_one_frame(t)) {
      ++report_.frames_completed;
    } else {
      ++report_.frames_dropped;
    }
  }
}

ResilienceReport ResilienceController::run(double duration_s) {
  VEDLIOT_CHECK(!ran_, "a ResilienceController drives exactly one run");
  VEDLIOT_CHECK(duration_s > 0, "run duration must be positive");
  ran_ = true;

  obs::ScopedSpan run_span;
  if (cfg_.trace) {
    run_span = cfg_.trace->span("resilience.run", "vedliot.platform.resilience.run");
    run_span.attr("duration_s", duration_s);
    run_span.attr("slots", static_cast<double>(slots_.size()));
  }

  // Baseline plan on the (presumably healthy) platform as it stands now.
  const auto avail = sim_.alive_of(slots_);
  if (avail.empty()) throw PlatformError("no alive slot to start the pipeline on");
  PlanOptions opts;
  opts.slot_gops_scale = sim_.gops_scales();
  opts.trace = cfg_.trace;
  plan_ = plan_distributed_inference(graph_, sim_.chassis(), sim_.fabric(), avail,
                                     std::min(preferred_stages_, avail.size() * 2),
                                     preferred_dtype_, opts);
  stages_ = plan_.stages.size();
  plan_valid_ = true;
  report_.healthy_plan = plan_;

  const long ticks = std::lround(duration_s / cfg_.heartbeat_period_s);
  for (long k = 1; k <= ticks; ++k) {
    const double t = static_cast<double>(k) * cfg_.heartbeat_period_s;
    note_injected(t, sim_.advance_to(t));
    heartbeat_tick(t);
    verdict_tick(t);
    if (need_replan_) recover(t, replan_reason_);
    process_frames(t);
  }

  report_.events.assign(log_.events().begin(), log_.events().end());
  report_.final_plan = plan_valid_ ? plan_ : DistributedPlan{};
  report_.final_dtype = dtype_;
  report_.final_stages = plan_valid_ ? stages_ : 0;
  if (cfg_.trace) {
    run_span.attr("events", static_cast<double>(report_.events.size()));
    run_span.attr("frames_completed", static_cast<double>(report_.frames_completed));
    run_span.attr("frames_dropped", static_cast<double>(report_.frames_dropped));
  }
  return report_;
}

}  // namespace vedliot::platform
