#include "serve/breaker.hpp"

#include "util/error.hpp"

namespace vedliot::serve {

CircuitBreaker::CircuitBreaker(BreakerConfig config) : cfg_(config) {
  VEDLIOT_CHECK(cfg_.failure_threshold >= 1, "breaker failure threshold must be >= 1");
  VEDLIOT_CHECK(cfg_.cooldown_s > 0, "breaker cooldown must be positive");
  VEDLIOT_CHECK(cfg_.half_open_probes >= 1, "breaker needs at least one probe");
}

BreakerTransition CircuitBreaker::to(BreakerState next, const std::string& reason) {
  BreakerTransition tr{state_, next, reason};
  state_ = next;
  failures_ = 0;
  probes_in_flight_ = 0;
  probe_successes_ = 0;
  return tr;
}

std::optional<BreakerTransition> CircuitBreaker::tick(double now) {
  if (state_ == BreakerState::kOpen && now >= opened_at_ + cfg_.cooldown_s) {
    return to(BreakerState::kHalfOpen, "cooldown expired, probing");
  }
  return std::nullopt;
}

bool CircuitBreaker::allow() const {
  switch (state_) {
    case BreakerState::kClosed: return true;
    case BreakerState::kOpen: return false;
    case BreakerState::kHalfOpen: return probes_in_flight_ < cfg_.half_open_probes;
  }
  throw InvalidArgument("unknown breaker state");
}

void CircuitBreaker::on_dispatch() {
  if (state_ == BreakerState::kHalfOpen) ++probes_in_flight_;
}

std::optional<BreakerTransition> CircuitBreaker::record_success(double now) {
  (void)now;
  switch (state_) {
    case BreakerState::kClosed:
      failures_ = 0;
      return std::nullopt;
    case BreakerState::kOpen:
      // Stale completion from before the trip: the breaker stays open.
      return std::nullopt;
    case BreakerState::kHalfOpen:
      ++probe_successes_;
      if (probe_successes_ >= cfg_.half_open_probes) {
        return to(BreakerState::kClosed,
                  std::to_string(probe_successes_) + " probe successes");
      }
      return std::nullopt;
  }
  throw InvalidArgument("unknown breaker state");
}

std::optional<BreakerTransition> CircuitBreaker::record_failure(double now,
                                                               const std::string& reason) {
  switch (state_) {
    case BreakerState::kClosed:
      ++failures_;
      if (failures_ >= cfg_.failure_threshold) {
        opened_at_ = now;
        return to(BreakerState::kOpen, std::to_string(failures_) +
                                           " consecutive failures: " + reason);
      }
      return std::nullopt;
    case BreakerState::kOpen:
      return std::nullopt;
    case BreakerState::kHalfOpen:
      opened_at_ = now;
      return to(BreakerState::kOpen, "probe failed: " + reason);
  }
  throw InvalidArgument("unknown breaker state");
}

std::optional<BreakerTransition> CircuitBreaker::force_open(double now,
                                                           const std::string& reason) {
  opened_at_ = now;
  if (state_ == BreakerState::kOpen) return std::nullopt;  // cooldown refreshed
  return to(BreakerState::kOpen, reason);
}

}  // namespace vedliot::serve
