#include "serve/event_log.hpp"

#include "util/error.hpp"

namespace vedliot::serve {

std::string_view event_name(ServeEventKind kind) {
  switch (kind) {
    case ServeEventKind::kAdmitted: return "admitted";
    case ServeEventKind::kShed: return "shed";
    case ServeEventKind::kDisplaced: return "displaced";
    case ServeEventKind::kDispatched: return "dispatched";
    case ServeEventKind::kTransientFault: return "transient-fault";
    case ServeEventKind::kBackendFailure: return "backend-failure";
    case ServeEventKind::kRetry: return "retry";
    case ServeEventKind::kFailed: return "failed";
    case ServeEventKind::kCancelled: return "cancelled";
    case ServeEventKind::kCompleted: return "completed";
    case ServeEventKind::kDeadlineMiss: return "deadline-miss";
    case ServeEventKind::kQualityDegraded: return "quality-degraded";
    case ServeEventKind::kBackendDown: return "backend-down";
    case ServeEventKind::kBackendUp: return "backend-up";
    case ServeEventKind::kBreakerOpen: return "breaker-open";
    case ServeEventKind::kBreakerHalfOpen: return "breaker-half-open";
    case ServeEventKind::kBreakerClosed: return "breaker-closed";
    case ServeEventKind::kBrownoutDown: return "brownout-down";
    case ServeEventKind::kBrownoutUp: return "brownout-up";
    case ServeEventKind::kMemoryFault: return "memory-fault";
    case ServeEventKind::kScrubHit: return "scrub-hit";
    case ServeEventKind::kQuarantine: return "quarantine";
    case ServeEventKind::kModelReloaded: return "model-reloaded";
    case ServeEventKind::kOtaStaged: return "ota-staged";
    case ServeEventKind::kOtaCommitted: return "ota-committed";
    case ServeEventKind::kOtaRejected: return "ota-rejected";
    case ServeEventKind::kOtaRolledBack: return "ota-rolled-back";
    case ServeEventKind::kBatchExecuted: return "batch-executed";
    case ServeEventKind::kCacheHit: return "cache-hit";
    case ServeEventKind::kScaleUp: return "scale-up";
    case ServeEventKind::kScaleDown: return "scale-down";
    case ServeEventKind::kOtaChunk: return "ota-chunk";
    case ServeEventKind::kOtaChunkRetry: return "ota-chunk-retry";
    case ServeEventKind::kOtaResumed: return "ota-resumed";
    case ServeEventKind::kWaveStarted: return "wave-started";
    case ServeEventKind::kWavePassed: return "wave-passed";
    case ServeEventKind::kRolloutHalted: return "rollout-halted";
    case ServeEventKind::kRollbackPaced: return "rollback-paced";
    case ServeEventKind::kRolloutDone: return "rollout-done";
  }
  throw InvalidArgument("unknown serve event kind");
}

}  // namespace vedliot::serve
