#include "serve/rollout.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "runtime/session.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace vedliot::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

RolloutController::RolloutController(platform::PlatformSimulator& sim, RolloutConfig config)
    : sim_(sim),
      cfg_(std::move(config)),
      rng_(cfg_.seed),
      cache_(RolloutConfig::kCacheCapacity),
      log_("vedliot.serve", cfg_.trace, cfg_.metrics) {
  VEDLIOT_CHECK(!cfg_.devices.empty(), "rollout needs at least one device");
  VEDLIOT_CHECK(cfg_.canary_devices >= 1 && cfg_.canary_devices <= cfg_.devices.size(),
                "canary wave must be within [1, device count]");
  VEDLIOT_CHECK(cfg_.wave_growth >= 1.0, "wave growth must be >= 1");
  VEDLIOT_CHECK(cfg_.failure_threshold >= 0.0 && cfg_.failure_threshold < 1.0,
                "failure threshold must be in [0, 1)");
  VEDLIOT_CHECK(cfg_.control_period_s > 0, "control period must be positive");
  VEDLIOT_CHECK(cfg_.rollback_rate_per_s > 0, "rollback rate must be positive");
  VEDLIOT_CHECK(cfg_.rollback_burst >= 1.0, "rollback burst must be >= 1");
  devices_.reserve(cfg_.devices.size());
  for (const std::string& slot : cfg_.devices) {
    VEDLIOT_CHECK(sim_.chassis().occupied(slot), "rollout device not installed: " + slot);
    Device d;
    d.slot = slot;
    d.store = std::make_unique<safety::ModelStore>();
    devices_.push_back(std::move(d));
  }
}

RolloutController::~RolloutController() = default;

std::uint32_t RolloutController::serve_crc_of(const Graph& g, std::uint64_t canary_seed) {
  const auto inputs = g.inputs();
  VEDLIOT_CHECK(inputs.size() == 1, "serve fingerprint needs a single-input graph");
  const Shape& shape = g.node(inputs.front()).out_shape;
  Rng rng(canary_seed);
  const Tensor x(shape, rng.normal_vector(static_cast<std::size_t>(shape.numel())));
  const auto session = runtime::make_session(g, {});
  const Tensor y = session->run_single(x);
  return util::crc32(std::span<const float>(y.data()));
}

void RolloutController::set_baseline(const Graph& v1) {
  VEDLIOT_CHECK(!baseline_set_, "baseline already installed");
  baseline_crc_ = serve_crc_of(v1, cfg_.canary_seed);
  for (Device& d : devices_) {
    d.store->install(cfg_.model_name, v1);
    d.serving_version = 1;
    d.serve_crc = baseline_crc_;
  }
  baseline_set_ = true;
}

void RolloutController::set_target(safety::OtaPackage update, std::uint32_t manifest_serve_crc) {
  VEDLIOT_CHECK(!target_set_, "target already set");
  target_ = std::move(update);
  manifest_crc_ = manifest_serve_crc;
  chunker_ = std::make_unique<safety::OtaChunker>(
      std::span<const std::uint8_t>(target_.package), cfg_.chunk_bytes);
  target_set_ = true;
}

bool RolloutController::reachable(const Device& d) const {
  if (!sim_.alive(d.slot)) return false;
  try {
    sim_.fabric().route(cfg_.hub, d.slot);
    return true;
  } catch (const NotFound&) {
    return false;
  }
}

void RolloutController::start_wave(double t) {
  wave_begin_ = wave_end_;
  std::size_t size = cfg_.canary_devices;
  if (wave_index_ > 0) {
    const double scaled = static_cast<double>(last_wave_size_) * cfg_.wave_growth;
    size = static_cast<std::size_t>(std::ceil(scaled));
    if (size < 1) size = 1;
  }
  wave_end_ = std::min(devices_.size(), wave_begin_ + size);
  last_wave_size_ = wave_end_ - wave_begin_;
  wave_active_ = true;
  ++report_.waves_started;
  std::string detail = std::to_string(wave_end_ - wave_begin_);
  detail += " devices";
  log_.add(t, ServeEventKind::kWaveStarted, "wave " + std::to_string(wave_index_), detail,
           static_cast<double>(wave_index_));
  for (std::size_t i = wave_begin_; i < wave_end_; ++i) start_transfer(t, devices_[i], i);
}

void RolloutController::start_transfer(double t, Device& d, std::size_t index) {
  d.receiver = std::make_unique<safety::OtaReceiver>(chunker_->total_bytes(),
                                                     chunker_->chunk_bytes(),
                                                     chunker_->package_crc());
  d.sender = std::make_unique<safety::OtaSender>(
      cfg_.sender, cfg_.seed ^ (0x07ACC5ull * (static_cast<std::uint64_t>(index) + 1)));
  d.phase = Phase::kTransferring;
  d.next_action_s = t;
  d.wave = wave_index_;
}

void RolloutController::step_transfer(double t, Device& d) {
  if (!sim_.alive(d.slot)) {
    d.phase = Phase::kPaused;
    d.next_action_s = kInf;
    return;
  }
  const auto seqs = d.sender->select(*d.receiver);
  if (seqs.empty()) {
    stage_and_push(t, d);
    return;
  }
  struct Delivery {
    std::uint32_t seq = 0;
    platform::PlatformSimulator::ChannelDraw draw;
  };
  std::vector<Delivery> window;
  window.reserve(seqs.size());
  for (const std::uint32_t seq : seqs) {
    try {
      window.push_back(Delivery{seq, sim_.draw_channel(cfg_.hub, d.slot)});
    } catch (const NotFound&) {
      // Partition discovered on the wire: park until a heal/restart wakes us.
      d.phase = Phase::kPaused;
      d.next_action_s = kInf;
      return;
    }
  }
  std::size_t reordered = 0;
  for (const Delivery& del : window) {
    if (del.draw.reordered) ++reordered;
  }
  if (reordered > 0 && window.size() > 1) {
    std::reverse(window.begin(), window.end());
    report_.reorders += reordered;
  }
  double when = t;
  for (const Delivery& del : window) {
    safety::OtaChunk chunk = chunker_->chunk(del.seq);
    when += sim_.fabric().transfer_time_s(cfg_.hub, d.slot,
                                          static_cast<double>(chunk.payload.size()));
    ++report_.chunks_sent;
    report_.bytes_sent += chunk.payload.size();
    if (!del.draw.intact) {
      // Damaged in flight: the receiver's CRC would refuse it; schedule the
      // retry after a jittered (floored) backoff.
      const double backoff = d.sender->on_result(del.seq, false);
      ++report_.chunk_retries;
      std::string detail = "chunk ";
      detail += std::to_string(del.seq);
      detail += " damaged in flight";
      log_.add(when, ServeEventKind::kOtaChunkRetry, "device " + d.slot, detail, backoff);
      if (d.sender->exhausted()) {
        d.phase = Phase::kFailed;
        d.next_action_s = kInf;
        log_.add(when, ServeEventKind::kFailed, "device " + d.slot, "transfer attempts exhausted");
        return;
      }
      d.next_action_s = when + backoff;
      return;
    }
    const auto accepted = d.receiver->accept(chunk);
    d.sender->on_result(del.seq, true);
    if (accepted == safety::OtaReceiver::Accept::kAccepted) {
      ++report_.chunks_accepted;
      log_.add(when, ServeEventKind::kOtaChunk, "device " + d.slot, "",
               static_cast<double>(del.seq));
    } else if (accepted == safety::OtaReceiver::Accept::kDuplicate) {
      ++report_.duplicates;
    }
    if (del.draw.duplicated) {
      if (d.receiver->accept(chunk) == safety::OtaReceiver::Accept::kDuplicate) {
        ++report_.duplicates;
      }
    }
  }
  if (d.receiver->complete()) {
    stage_and_push(when, d);
  } else {
    d.next_action_s = when;
  }
}

std::uint32_t RolloutController::target_serve_crc(Device& d) {
  if (!target_actual_crc_) {
    // Every committed device swapped in bit-identical bytes (the receiver
    // pinned reassembly to the package CRC), so one fingerprint run serves
    // the whole fleet.
    const Graph g = d.store->materialize(cfg_.model_name);
    target_actual_crc_ = serve_crc_of(g, cfg_.canary_seed);
  }
  return *target_actual_crc_;
}

void RolloutController::stage_and_push(double t, Device& d) {
  std::string detail = std::to_string(d.receiver->chunk_count());
  detail += " chunks reassembled";
  log_.add(t, ServeEventKind::kOtaStaged, "device " + d.slot, detail,
           static_cast<double>(d.receiver->received_chunks()));
  const std::vector<std::uint8_t>& bytes = d.receiver->assemble();
  safety::OtaPackage update;
  update.package = bytes;
  update.canary_seed = target_.canary_seed;
  update.canary_inputs = target_.canary_inputs;
  update.canary_output = target_.canary_output;
  const auto rep = d.store->push(cfg_.model_name, update);
  d.next_action_s = kInf;
  if (rep.outcome == safety::OtaOutcome::kCommitted) {
    d.phase = Phase::kCommitted;
    d.ever_committed = true;
    d.serving_version = rep.to_version;
    d.serve_crc = target_serve_crc(d);
    log_.add(t, ServeEventKind::kOtaCommitted, "device " + d.slot, rep.detail,
             static_cast<double>(rep.to_version));
    sample_progress(t);
  } else {
    d.phase = Phase::kRejected;
    log_.add(t, ServeEventKind::kOtaRejected, "device " + d.slot, rep.detail,
             static_cast<double>(rep.to_version));
  }
}

void RolloutController::wake_paused(double t) {
  for (Device& d : devices_) {
    if (d.phase != Phase::kPaused) continue;
    if (!reachable(d)) continue;
    d.phase = Phase::kTransferring;
    d.next_action_s = t;
    ++d.resumes;
    ++report_.resumes;
    std::string detail = "resuming from chunk ";
    detail += std::to_string(d.receiver->next_needed());
    log_.add(t, ServeEventKind::kOtaResumed, "device " + d.slot, detail,
             static_cast<double>(d.receiver->next_needed()));
  }
}

void RolloutController::probe_devices(double t) {
  for (Device& d : devices_) {
    if (!sim_.alive(d.slot)) continue;
    ++report_.skew_probes;
    // A device must be able to vouch for its serving version: its serve CRC
    // has to be the fingerprint of a verified image (baseline or target).
    // Anything else means a torn / unverified install leaked into serving.
    const std::uint32_t expect = d.serving_version == 1
                                     ? baseline_crc_
                                     : (target_actual_crc_ ? *target_actual_crc_ : d.serve_crc);
    if (d.serve_crc != expect) ++report_.torn_serves;
    const std::string key = "canary-probe";
    const auto hit = cache_.get(key, d.serving_version);
    if (hit) {
      ++report_.skew_cache_hits;
      // Version-skew honesty: a hit may only come from a peer on the same
      // serving version, so its CRC must match this device's fingerprint.
      if (hit->output_crc32 != d.serve_crc) ++report_.skew_mismatches;
      continue;
    }
    Response r;
    r.request_id = 0;
    r.status = ResponseStatus::kOk;
    r.time_s = t;
    r.served_by = d.slot;
    r.output_crc32 = d.serve_crc;
    cache_.put(key, r, d.serving_version);
  }
}

bool RolloutController::wave_settled() const {
  for (std::size_t i = wave_begin_; i < wave_end_; ++i) {
    const Device& d = devices_[i];
    const bool terminal = d.phase == Phase::kCommitted || d.phase == Phase::kRejected ||
                          d.phase == Phase::kFailed;
    if (!terminal) return false;
    // Heartbeat gate: the wave only settles once every member answers.
    if (!sim_.alive(d.slot)) return false;
  }
  return true;
}

void RolloutController::gate_wave(double t) {
  const std::size_t size = wave_end_ - wave_begin_;
  std::size_t failures = 0;
  std::string why;
  for (std::size_t i = wave_begin_; i < wave_end_; ++i) {
    const Device& d = devices_[i];
    if (d.phase == Phase::kRejected || d.phase == Phase::kFailed) {
      ++failures;
      if (why.empty()) why = "device " + d.slot + " did not commit";
    } else if (d.phase == Phase::kCommitted && d.serve_crc != manifest_crc_) {
      ++failures;
      if (why.empty()) why = "device " + d.slot + " serve CRC diverges from manifest";
    }
  }
  const double fraction =
      size == 0 ? 0.0 : static_cast<double>(failures) / static_cast<double>(size);
  if (fraction > cfg_.failure_threshold) {
    begin_halt(t, fraction, why.empty() ? "health gate tripped" : why);
    return;
  }
  ++report_.waves_passed;
  std::string detail = std::to_string(failures);
  detail += "/";
  detail += std::to_string(size);
  detail += " failures";
  log_.add(t, ServeEventKind::kWavePassed, "wave " + std::to_string(wave_index_), detail,
           static_cast<double>(wave_index_));
  wave_active_ = false;
  if (wave_end_ >= devices_.size()) {
    finish(t, devices_.empty() ? 0 : devices_.front().serving_version, "all waves passed");
    return;
  }
  ++wave_index_;
  start_wave(t);
}

void RolloutController::begin_halt(double t, double fraction, const std::string& why) {
  halting_ = true;
  wave_active_ = false;
  report_.halted = true;
  log_.add(t, ServeEventKind::kRolloutHalted, "wave " + std::to_string(wave_index_), why, fraction);
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i].phase == Phase::kCommitted) rollback_queue_.push_back(i);
  }
  rollback_tokens_ = cfg_.rollback_burst;
  rollback_refill_t_ = t;
  pump_rollbacks(t);
}

void RolloutController::pump_rollbacks(double t) {
  rollback_tokens_ = std::min(
      cfg_.rollback_burst,
      rollback_tokens_ + cfg_.rollback_rate_per_s * std::max(0.0, t - rollback_refill_t_));
  rollback_refill_t_ = t;
  // The epsilon keeps the pump live when a refill lands at 1.0 - ulp: without
  // it the residual wait (1 - tokens) / rate underflows against t and the
  // wakeup stops advancing simulated time.
  while (!rollback_queue_.empty() && rollback_tokens_ >= 1.0 - 1e-9) {
    rollback_tokens_ = std::max(0.0, rollback_tokens_ - 1.0);
    const std::size_t idx = rollback_queue_.front();
    rollback_queue_.erase(rollback_queue_.begin());
    Device& d = devices_[idx];
    const auto rep = d.store->rollback(cfg_.model_name);
    VEDLIOT_CHECK(rep.outcome == safety::OtaOutcome::kRolledBack,
                  "committed device must be able to roll back");
    d.phase = Phase::kRolledBack;
    d.serving_version = rep.to_version;
    d.serve_crc = baseline_crc_;
    log_.add(t, ServeEventKind::kOtaRolledBack, "device " + d.slot, rep.detail,
             static_cast<double>(rep.to_version));
    pacing_logged_ = false;
  }
  if (!rollback_queue_.empty()) {
    const double wait = (1.0 - rollback_tokens_) / cfg_.rollback_rate_per_s;
    rollback_ready_s_ = t + wait;
    if (!pacing_logged_) {
      ++report_.rollbacks_paced;
      log_.add(t, ServeEventKind::kRollbackPaced,
               "device " + devices_[rollback_queue_.front()].slot, "token bucket empty", wait);
      pacing_logged_ = true;
    }
    return;
  }
  if (halting_ && !done_) finish(t, 1, "fleet rolled back to baseline");
}

void RolloutController::finish(double t, std::uint32_t final_version,
                               const std::string& detail) {
  done_ = true;
  report_.converged = true;
  report_.converged_at_s = t;
  log_.add(t, ServeEventKind::kRolloutDone, "rollout", detail, static_cast<double>(final_version));
}

void RolloutController::sample_progress(double t) {
  std::size_t committed = 0;
  for (const Device& d : devices_) {
    if (d.phase == Phase::kCommitted) ++committed;
  }
  if (report_.progress.empty() || report_.progress.back().second != committed) {
    report_.progress.emplace_back(t, committed);
  }
}

void RolloutController::control_tick(double t) {
  probe_devices(t);
  if (halting_) {
    pump_rollbacks(t);
    return;
  }
  if (wave_active_ && wave_settled()) gate_wave(t);
}

RolloutReport RolloutController::run(double duration_s) {
  VEDLIOT_CHECK(!ran_, "RolloutController::run is one-shot");
  VEDLIOT_CHECK(baseline_set_, "set_baseline before run");
  VEDLIOT_CHECK(target_set_, "set_target before run");
  VEDLIOT_CHECK(duration_s > 0, "duration must be positive");
  ran_ = true;
  report_.devices_total = devices_.size();
  sample_progress(0);
  start_wave(0);
  next_control_s_ = cfg_.control_period_s;
  while (!done_) {
    double t = next_control_s_;
    if (const auto ft = sim_.next_fault_time()) t = std::min(t, *ft);
    for (const Device& d : devices_) {
      if (d.phase == Phase::kTransferring) t = std::min(t, d.next_action_s);
    }
    if (halting_ && !rollback_queue_.empty()) t = std::min(t, rollback_ready_s_);
    if (t > duration_s) break;
    const auto faults = sim_.advance_to(t);
    bool heal = false;
    for (const auto& f : faults) {
      switch (f.kind) {
        case platform::FaultKind::kModuleCrash:
          for (Device& d : devices_) {
            if (d.slot == f.slot && d.phase == Phase::kTransferring) {
              d.phase = Phase::kPaused;
              d.next_action_s = kInf;
            }
          }
          break;
        case platform::FaultKind::kModuleRestart:
        case platform::FaultKind::kLinkHeal:
        case platform::FaultKind::kLinkRestore:
          heal = true;
          break;
        default:
          break;
      }
    }
    if (heal) wake_paused(t);
    if (next_control_s_ <= t) {
      control_tick(t);
      next_control_s_ += cfg_.control_period_s;
    }
    if (done_) break;
    for (Device& d : devices_) {
      if (d.phase == Phase::kTransferring && d.next_action_s <= t) step_transfer(t, d);
    }
    if (halting_ && !rollback_queue_.empty() && rollback_ready_s_ <= t) pump_rollbacks(t);
  }
  report_.events = log_.take();
  report_.skew_version_misses = cache_.version_misses();
  for (const Device& d : devices_) {
    DeviceOutcome o;
    o.slot = d.slot;
    o.version = d.serving_version;
    o.serve_crc = d.serve_crc;
    o.committed = d.ever_committed;
    o.rolled_back = d.phase == Phase::kRolledBack;
    o.transfer_failed = d.phase == Phase::kFailed;
    o.resumes = d.resumes;
    report_.outcomes.push_back(o);
    switch (d.phase) {
      case Phase::kCommitted: ++report_.devices_committed; break;
      case Phase::kRejected: ++report_.devices_rejected; break;
      case Phase::kRolledBack: ++report_.devices_rolled_back; break;
      case Phase::kFailed: ++report_.devices_failed; break;
      case Phase::kIdle:
      case Phase::kTransferring:
      case Phase::kPaused:
        break;
    }
  }
  return report_;
}

}  // namespace vedliot::serve
