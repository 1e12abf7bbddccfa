#pragma once
/// \file event_log.hpp
/// \brief The event kinds of the serving engines (Fleet, RolloutController)
/// and their names for the generic obs::EventLog (obs/event_log.hpp), which
/// mirrors each ServeEvent into the tracer and counters under the category
/// its owner fixes ("vedliot.fleet" for the fleet, "vedliot.serve" for the
/// rollout controller).

#include <span>
#include <string>
#include <string_view>

#include "obs/event_log.hpp"

namespace vedliot::serve {

enum class ServeEventKind {
  kAdmitted,        ///< request accepted into the queue
  kShed,            ///< rejected at admission (bound / queue full / no replica)
  kDisplaced,       ///< queued request evicted by a higher-priority arrival
  kDispatched,      ///< request handed to a backend
  kTransientFault,  ///< one transfer leg failed transiently
  kBackendFailure,  ///< a dispatched request failed on its backend
  kRetry,           ///< failed request re-queued after jittered backoff
  kFailed,          ///< request gave up (retry budget / no time left)
  kCancelled,       ///< deadline passed while queued / infeasible at dispatch
  kCompleted,       ///< response delivered within its deadline
  kDeadlineMiss,    ///< response delivered after its deadline
  kQualityDegraded, ///< robustness check flagged the response divergent
  kBackendDown,     ///< heartbeat monitor declared a backend dead
  kBackendUp,       ///< previously-down backend answered probes again
  kBreakerOpen,     ///< circuit breaker tripped on a backend
  kBreakerHalfOpen, ///< breaker cooldown expired, probing
  kBreakerClosed,   ///< probes succeeded, backend back in rotation
  kBrownoutDown,    ///< degraded one rung (value = new level)
  kBrownoutUp,      ///< recovered one rung (value = new level)
  kMemoryFault,     ///< scheduled SEU flipped weight bits in a deployed model
  kScrubHit,        ///< scrubber localized corruption to a (node, tensor)
  kQuarantine,      ///< implicated replica force-opened while weights rewrite
  kModelReloaded,   ///< corrupted tensors re-materialized from the golden store
  kOtaStaged,       ///< OTA payload arrived, verification starting
  kOtaCommitted,    ///< OTA verified and swapped atomically (value = version)
  kOtaRejected,     ///< OTA failed pre-swap verification, old version serving
  kOtaRolledBack,   ///< post-swap corruption, previous version restored
  kBatchExecuted,   ///< fleet: a coalesced batch ran (value = real lanes)
  kCacheHit,        ///< fleet: idempotent request answered from the cache
  kScaleUp,         ///< fleet: replica added (value = new replica count)
  kScaleDown,       ///< fleet: replica drained (value = new replica count)
  kOtaChunk,        ///< rollout: device accepted a transfer chunk (value = seq)
  kOtaChunkRetry,   ///< rollout: chunk resend scheduled (value = backoff s)
  kOtaResumed,      ///< rollout: interrupted transfer resumed (value = next seq)
  kWaveStarted,     ///< rollout: wave opened (value = wave index)
  kWavePassed,      ///< rollout: wave health gate passed (value = wave index)
  kRolloutHalted,   ///< rollout: failure fraction tripped (value = fraction)
  kRollbackPaced,   ///< rollout: rollback delayed by token bucket (value = wait s)
  kRolloutDone,     ///< rollout: terminal state reached (value = final version)
};

/// The event's name in log lines, tracer instants and counters
/// ("admitted", "breaker-open", ...).
std::string_view event_name(ServeEventKind kind);

using ServeEvent = obs::Event<ServeEventKind>;
using EventLog = obs::EventLog<ServeEventKind>;

/// obs::event_digest over serving events.
inline std::string event_digest(std::span<const ServeEvent> events) {
  return obs::event_digest(events);
}

}  // namespace vedliot::serve
