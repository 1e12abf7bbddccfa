#include "serve/event_log.hpp"

#include <cstdio>
#include <map>
#include <utility>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace vedliot::serve {

std::string_view serve_event_name(ServeEventKind kind) {
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

std::string format_serve_event(const ServeEvent& e) {
  char head[64];
  std::snprintf(head, sizeof(head), "[%8.4fs] %-18s ", e.time_s,
                std::string(serve_event_name(e.kind)).c_str());
  std::string out(head);
  out += e.subject;
  if (!e.detail.empty()) {
    out += "  ";
    out += e.detail;
  }
  return out;
}

std::string event_digest(std::span<const ServeEvent> events) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const ServeEvent& e : events) h = util::fnv1a64(format_serve_event(e), h);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

EventLog::EventLog(std::string category, obs::Tracer* trace, obs::MetricsRegistry* metrics)
    : category_(std::move(category)),
      counter_prefix_(category_ + "."),
      trace_(trace),
      metrics_(metrics) {}

void EventLog::add(double t, ServeEventKind kind, std::string subject, std::string detail,
                   double value) {
  if (trace_) {
    obs::Span& sp = trace_->instant(std::string(serve_event_name(kind)), category_);
    sp.attrs.emplace_back("subject", subject);
    if (!detail.empty()) sp.attrs.emplace_back("detail", detail);
    sp.num_attrs.emplace_back("time_s", t);
    sp.num_attrs.emplace_back("value", value);
  }
  if (metrics_) metrics_->counter(counter_prefix_ + std::string(serve_event_name(kind))).inc();
  events_.push_back(ServeEvent{t, kind, std::move(subject), std::move(detail), value});
}

std::vector<std::string> EventLog::check_mirror(std::span<const ServeEvent> events,
                                                std::string_view category,
                                                const obs::Tracer& trace,
                                                const obs::MetricsRegistry& metrics) {
  std::vector<std::string> violations;
  std::vector<const obs::Span*> mirrored;
  for (const obs::Span& sp : trace.spans()) {
    if (sp.category == category) mirrored.push_back(&sp);
  }
  if (mirrored.size() != events.size()) {
    violations.push_back("tracer mirror count " + std::to_string(mirrored.size()) +
                         " != event count " + std::to_string(events.size()));
    return violations;
  }
  for (std::size_t i = 0; i < mirrored.size(); ++i) {
    const std::string expect(serve_event_name(events[i].kind));
    if (mirrored[i]->name != expect) {
      violations.push_back("tracer mirror out of order at event " + std::to_string(i) + ": " +
                           mirrored[i]->name + " != " + expect);
      return violations;
    }
  }

  const std::string prefix = std::string(category) + ".";
  std::map<std::string, std::uint64_t> counts;
  for (const ServeEvent& e : events) ++counts[prefix + std::string(serve_event_name(e.kind))];
  for (const auto& [name, count] : counts) {
    if (!metrics.has_counter(name) || metrics.counters().at(name).value() != count) {
      violations.push_back("counter " + name + " != event count " + std::to_string(count));
    }
  }
  for (const auto& [name, counter] : metrics.counters()) {
    if (name.rfind(prefix, 0) == 0 && !counts.count(name)) {
      violations.push_back("counter " + name + " has no matching events");
    }
  }
  return violations;
}

}  // namespace vedliot::serve
