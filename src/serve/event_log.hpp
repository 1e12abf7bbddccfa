#pragma once
/// \file event_log.hpp
/// \brief The structured event log of the serving engines (Server, Fleet,
/// RolloutController).
///
/// Every engine decision is a ServeEvent. The engine records it through its
/// EventLog, which keeps the event vector and mirrors each event 1:1 into
/// the optional obs::Tracer (an instant span under the category the owner
/// fixes, "vedliot.serve" or "vedliot.fleet", with `subject`/`detail`
/// string and `time_s`/`value` numeric attributes) and the optional
/// obs::MetricsRegistry (counter `<category>.<kind>`). EventLog::check_mirror
/// is the one check of that contract, and event_digest the one fingerprint
/// soak records pin an event log with.

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vedliot::serve {

enum class ServeEventKind {
  kAdmitted,        ///< request accepted into the queue
  kShed,            ///< rejected at admission (bound / infeasible / no backend)
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
  kQuarantine,      ///< implicated backend force-opened while weights rewrite
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

std::string_view serve_event_name(ServeEventKind kind);

struct ServeEvent {
  double time_s = 0;
  ServeEventKind kind = ServeEventKind::kAdmitted;
  std::string subject;  ///< "request 42", "backend come1", "brownout", ...
  std::string detail;
  double value = 0;     ///< kind-specific (latency s, backoff s, level, ...)
};

/// One line per event: "[ 0.0300s] shed               request 42  queue full".
std::string format_serve_event(const ServeEvent& e);

/// Order-sensitive digest of an event list: FNV-1a 64 chained over
/// format_serve_event of each event, as 16 hex digits. Two runs agree on it
/// iff they agree on every event. Computed when a record is written, never
/// per logged event (formatting every event costs a large share of a run).
std::string event_digest(std::span<const ServeEvent> events);

class EventLog {
 public:
  /// \p category names the tracer instants and prefixes the counters.
  /// \p trace and \p metrics may be null; when set they must outlive the log.
  EventLog(std::string category, obs::Tracer* trace, obs::MetricsRegistry* metrics);

  /// Record one event and mirror it. Without a tracer or registry this is
  /// a single push_back.
  void add(double t, ServeEventKind kind, std::string subject, std::string detail = {},
           double value = 0);

  /// Hand the events over (to the owner's report); the log is empty after.
  std::vector<ServeEvent> take() { return std::exchange(events_, {}); }

  /// Violations of the mirror contract for \p events logged under
  /// \p category: the tracer's \p category instants name the events 1:1 and
  /// in order, every `<category>.<kind>` counter equals that kind's event
  /// count, and no such counter exists without events. Empty when it holds.
  static std::vector<std::string> check_mirror(std::span<const ServeEvent> events,
                                               std::string_view category,
                                               const obs::Tracer& trace,
                                               const obs::MetricsRegistry& metrics);

 private:
  std::string category_;
  std::string counter_prefix_;  ///< category_ + "."
  obs::Tracer* trace_;
  obs::MetricsRegistry* metrics_;
  std::vector<ServeEvent> events_;
};

}  // namespace vedliot::serve
