#include "obs/event_log.hpp"

#include <cstdio>
#include <map>

namespace vedliot::obs {

std::string format_event_line(double time_s, std::string_view name, const std::string& subject,
                              const std::string& detail) {
  char head[64];
  std::snprintf(head, sizeof(head), "[%8.4fs] %-18s ", time_s, std::string(name).c_str());
  std::string out(head);
  out += subject;
  if (!detail.empty()) {
    out += "  ";
    out += detail;
  }
  return out;
}

std::string digest_hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void mirror_event(Tracer* trace, MetricsRegistry* metrics, const std::string& category,
                  const std::string& counter_prefix, std::string_view name, double t,
                  const std::string& subject, const std::string& detail, double value) {
  if (trace) {
    Span& sp = trace->instant(std::string(name), category);
    sp.attrs.emplace_back("subject", subject);
    if (!detail.empty()) sp.attrs.emplace_back("detail", detail);
    sp.num_attrs.emplace_back("time_s", t);
    sp.num_attrs.emplace_back("value", value);
  }
  if (metrics) metrics->counter(counter_prefix + std::string(name)).inc();
}

std::vector<std::string> check_mirror_names(std::span<const std::string_view> names,
                                            std::string_view category, const Tracer& trace,
                                            const MetricsRegistry* metrics) {
  std::vector<std::string> violations;
  std::vector<const Span*> mirrored;
  for (const Span& sp : trace.spans()) {
    if (sp.category == category) mirrored.push_back(&sp);
  }
  if (mirrored.size() != names.size()) {
    violations.push_back("tracer mirror count " + std::to_string(mirrored.size()) +
                         " != event count " + std::to_string(names.size()));
    return violations;
  }
  for (std::size_t i = 0; i < mirrored.size(); ++i) {
    if (mirrored[i]->name != names[i]) {
      violations.push_back("tracer mirror out of order at event " + std::to_string(i) + ": " +
                           mirrored[i]->name + " != " + std::string(names[i]));
      return violations;
    }
  }
  if (!metrics) return violations;

  const std::string prefix = std::string(category) + ".";
  std::map<std::string, std::uint64_t> counts;
  for (const std::string_view name : names) ++counts[prefix + std::string(name)];
  for (const auto& [name, count] : counts) {
    if (!metrics->has_counter(name) || metrics->counters().at(name).value() != count) {
      violations.push_back("counter " + name + " != event count " + std::to_string(count));
    }
  }
  for (const auto& [name, counter] : metrics->counters()) {
    if (name.rfind(prefix, 0) == 0 && !counts.count(name)) {
      violations.push_back("counter " + name + " has no matching events");
    }
  }
  return violations;
}

}  // namespace vedliot::obs
