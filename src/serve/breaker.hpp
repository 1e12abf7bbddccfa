#pragma once
/// \file breaker.hpp
/// \brief Per-backend circuit breaker for the serving layer.
///
/// Classic three-state breaker: kClosed passes traffic and counts
/// consecutive failures; at the threshold it trips to kOpen and sheds load
/// off the backend; after a cooldown it half-opens and lets a bounded
/// number of probe requests through — enough consecutive probe successes
/// close it again, any probe failure re-opens it. The serving front-end
/// keeps one breaker per backend slot and feeds it from transfer results,
/// completion results and HealthMonitor down/up beats, so a crashed module
/// stops receiving work within one detection period instead of eating its
/// queue share as timeouts.

#include <optional>
#include <string>

namespace vedliot::serve {

enum class BreakerState {
  kClosed,    ///< normal operation, failures counted
  kOpen,      ///< shedding: no traffic until the cooldown expires
  kHalfOpen,  ///< probing: a bounded number of trial requests allowed
};

struct BreakerConfig {
  int failure_threshold = 3;   ///< consecutive failures -> open
  double cooldown_s = 50e-3;   ///< open duration before half-open probing
  int half_open_probes = 2;    ///< consecutive probe successes -> closed
};

/// One observed state change, in the order it happened. The breaker never
/// logs on its own: transitions are returned to the caller, which owns the
/// serving event stream.
struct BreakerTransition {
  BreakerState from = BreakerState::kClosed;
  BreakerState to = BreakerState::kClosed;
  std::string reason;
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerConfig config = {});

  /// Advance to \p now: an open breaker whose cooldown has expired moves to
  /// half-open (returned as a transition). Call once per control tick.
  std::optional<BreakerTransition> tick(double now);

  /// May a request be dispatched right now? Closed always; half-open only
  /// while a probe slot is free; open never.
  bool allow() const;

  /// A request was dispatched; in half-open this occupies one probe slot.
  void on_dispatch();

  std::optional<BreakerTransition> record_success(double now);
  std::optional<BreakerTransition> record_failure(double now, const std::string& reason);

  /// External kill signal (heartbeat monitor declared the backend down):
  /// trip straight to open no matter the state. Re-arming an already-open
  /// breaker refreshes its cooldown.
  std::optional<BreakerTransition> force_open(double now, const std::string& reason);

  BreakerState state() const { return state_; }
  int consecutive_failures() const { return failures_; }

 private:
  BreakerTransition to(BreakerState next, const std::string& reason);

  BreakerConfig cfg_;
  BreakerState state_ = BreakerState::kClosed;
  int failures_ = 0;        ///< consecutive, while closed
  double opened_at_ = 0;    ///< cooldown anchor, while open
  int probes_in_flight_ = 0;
  int probe_successes_ = 0;
};

}  // namespace vedliot::serve
