#pragma once
/// \file event_log.hpp
/// \brief The structured event log of every engine that narrates its
/// decisions (serve::ServeEventKind for the fleet and rollout controller,
/// platform::ResilienceEventKind for the resilience controller).
///
/// An EventLog<Kind> keeps its Event<Kind> vector and mirrors each event 1:1
/// into the optional Tracer (an instant span under the owner's category with
/// `subject`/`detail` and `time_s`/`value` attributes) and the optional
/// MetricsRegistry (counter `<category>.<kind>`). check_mirror is the one
/// check of that contract, format_event the one line format and
/// event_digest the one fingerprint soak records pin a log with. Kind is any
/// enum whose `event_name(Kind)` is found by argument-dependent lookup.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"

namespace vedliot::obs {

template <class Kind>
struct Event {
  double time_s = 0;
  Kind kind{};
  std::string subject;  ///< "request 42", "backend come1", "slot come0", ...
  std::string detail;
  double value = 0;     ///< kind-specific (latency s, backoff s, level, ...)
};

/// format_event for an already-resolved kind name.
std::string format_event_line(double time_s, std::string_view name, const std::string& subject,
                              const std::string& detail);
std::string digest_hex(std::uint64_t h);  ///< 16 lower-case hex digits

/// One line per event: "[ 0.0300s] shed               request 42  queue full".
template <class Kind>
std::string format_event(const Event<Kind>& e) {
  return format_event_line(e.time_s, event_name(e.kind), e.subject, e.detail);
}

/// Order-sensitive digest of an event list: FNV-1a 64 chained over
/// format_event of each event, as 16 hex digits. Two runs agree on it iff
/// they agree on every event. Computed when a record is written, never per
/// logged event (formatting every event costs a large share of a run).
template <class Kind>
std::string event_digest(std::span<const Event<Kind>> events) {
  std::uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a 64 offset basis
  for (const Event<Kind>& e : events) h = util::fnv1a64(format_event(e), h);
  return digest_hex(h);
}

/// Mirror one event into \p trace and \p metrics (either may be null).
void mirror_event(Tracer* trace, MetricsRegistry* metrics, const std::string& category,
                  const std::string& counter_prefix, std::string_view name, double t,
                  const std::string& subject, const std::string& detail, double value);

/// check_mirror over resolved event names (see EventLog::check_mirror).
std::vector<std::string> check_mirror_names(std::span<const std::string_view> names,
                                            std::string_view category, const Tracer& trace,
                                            const MetricsRegistry* metrics);

template <class Kind>
class EventLog {
 public:
  /// \p category names the tracer instants and prefixes the counters.
  /// \p trace and \p metrics may be null; when set they must outlive the log.
  EventLog(std::string category, Tracer* trace, MetricsRegistry* metrics)
      : category_(std::move(category)),
        counter_prefix_(category_ + "."),
        trace_(trace),
        metrics_(metrics) {}

  /// Record one event and mirror it. Without a tracer or registry this is
  /// a single push_back.
  void add(double t, Kind kind, std::string subject, std::string detail = {}, double value = 0) {
    if (trace_ || metrics_) {
      mirror_event(trace_, metrics_, category_, counter_prefix_, event_name(kind), t, subject,
                   detail, value);
    }
    events_.push_back(Event<Kind>{t, kind, std::move(subject), std::move(detail), value});
  }

  /// The events recorded so far (live while the owner's run is going).
  std::span<const Event<Kind>> events() const { return events_; }

  /// Hand the events over (to the owner's report); the log is empty after.
  std::vector<Event<Kind>> take() { return std::exchange(events_, {}); }

  /// Violations of the mirror contract for \p events logged under
  /// \p category: the tracer's \p category instants name the events 1:1 and
  /// in order; with a registry, every `<category>.<kind>` counter equals
  /// that kind's event count and no such counter exists without events.
  /// Empty when it holds.
  static std::vector<std::string> check_mirror(std::span<const Event<Kind>> events,
                                               std::string_view category, const Tracer& trace,
                                               const MetricsRegistry* metrics = nullptr) {
    std::vector<std::string_view> names;
    names.reserve(events.size());
    for (const Event<Kind>& e : events) names.push_back(event_name(e.kind));
    return check_mirror_names(names, category, trace, metrics);
  }

 private:
  std::string category_;
  std::string counter_prefix_;  ///< category_ + "."
  Tracer* trace_;
  MetricsRegistry* metrics_;
  std::vector<Event<Kind>> events_;
};

}  // namespace vedliot::obs
