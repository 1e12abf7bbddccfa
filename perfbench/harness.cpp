#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <malloc.h>
#include <thread>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "graph/cost.hpp"
#include "obs/json.hpp"
#include "util/cpu.hpp"

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0;
}

void release_free_memory() { malloc_trim(0); }

namespace {

constexpr int kRefLength = 4096;  ///< int16 elements per SpeedReference operand
constexpr int kRefSweeps = 4000;

volatile std::int32_t g_reference_sink;

#if defined(__x86_64__)
__attribute__((target("avx2"), noinline)) std::int32_t reference_loop_avx2(const std::int16_t* a,
                                                                           const std::int16_t* b) {
  // One accumulator, so each sweep is a dependent add chain behind the
  // multiply-adds: the loop's speed is the core's, not the memory system's.
  __m256i acc = _mm256_setzero_si256();
  for (int sweep = 0; sweep < kRefSweeps; ++sweep) {
    for (int i = 0; i < kRefLength; i += 16) {
      const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i y = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
      acc = _mm256_add_epi32(acc, _mm256_madd_epi16(x, y));
    }
  }
  return _mm256_extract_epi32(acc, 0) ^ _mm256_extract_epi32(acc, 7);
}
#endif

__attribute__((noinline)) std::int32_t reference_loop_portable(const std::int16_t* a,
                                                               const std::int16_t* b) {
  std::int32_t acc = 0;
  for (int sweep = 0; sweep < kRefSweeps; ++sweep) {
    for (int i = 0; i < kRefLength; ++i) acc += a[i] * b[i];
  }
  return acc;
}

std::int32_t reference_loop(const std::int16_t* a, const std::int16_t* b) {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) return reference_loop_avx2(a, b);
#endif
  return reference_loop_portable(a, b);
}

}  // namespace

SpeedReference::SpeedReference()
    : a_(kRefLength, 3), b_(kRefLength, 5), best_s_(std::numeric_limits<double>::infinity()) {}

void SpeedReference::measure() {
  const auto t0 = Clock::now();
  g_reference_sink = reference_loop(a_.data(), b_.data());
  best_s_ = std::min(best_s_, seconds_since(t0));
}

std::string environment_json(const Args& args) {
  const auto simd = vedliot::util::resolve_simd_level(vedliot::util::SimdLevel::kAuto);
  std::string out = "{\"workload\":\"" + vedliot::obs::json_escape(args.workload) + "\"";
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"trace\":" + std::string(args.trace ? "true" : "false");
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"simd\":\"" + std::string(vedliot::util::simd_level_name(simd)) + "\"";
  out += ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"}";
  return out;
}

double allocations_per_run(vedliot::runtime::Session& session,
                           const std::map<std::string, vedliot::Tensor>& feed) {
  (void)session.run(feed);
  std::vector<double> counts;
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t before = allocation_count();
    (void)session.run(feed);
    counts.push_back(static_cast<double>(allocation_count() - before));
  }
  return median(counts);
}

OpLedger::OpLedger(const Graph& graph) {
  for (const vedliot::NodeId id : graph.topo_order()) {
    const vedliot::Node& n = graph.node(id);
    if (n.kind != vedliot::OpKind::kConv2d) continue;
    ConvInfo info;
    info.depthwise = n.attrs.get_int_or("groups", 1) > 1;
    info.ops = static_cast<double>(vedliot::node_cost(graph, id).ops);
    conv_[n.name] = info;
  }
}

bool OpLedger::add_run(std::span<const obs::Span> spans) {
  // Time each span's direct children cover; children of one span run on the
  // caller's thread one after another, so they never overlap.
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  for (const obs::Span& sp : spans) {
    if (sp.parent != obs::Span::kNoParent) child_ns[sp.parent] += sp.end_ns - sp.start_ns;
  }
  std::int64_t run_total = 0;
  std::int64_t self_sum = 0;
  std::size_t run_spans = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::Span& sp = spans[i];
    const auto dur = static_cast<std::int64_t>(sp.end_ns - sp.start_ns);
    const std::int64_t self = dur - static_cast<std::int64_t>(child_ns[i]);
    self_sum += self;
    if (sp.name == "session.run" && sp.category == "vedliot.runtime") {
      ++run_spans;
      run_total += dur;
      dispatch_ns_ += static_cast<double>(self);
      continue;
    }
    op_self_ns_[sp.category] += static_cast<double>(self);
    const auto conv = conv_.find(sp.name);
    if (sp.category == "Conv2d" && conv != conv_.end()) {
      (conv->second.depthwise ? depthwise_ns_ : dense_ns_) += static_cast<double>(self);
      conv_ops_ += conv->second.ops;
    }
  }
  run_ns_ += static_cast<double>(run_total);
  ++runs_;
  // Every span of the run sits under session.run, so the self times of all
  // spans partition the run span's duration exactly (integer nanoseconds).
  return run_spans == 1 && self_sum == run_total;
}

void OpLedger::report(Outcome& out, double conv_roof_gops) const {
  if (runs_ == 0) return;
  const double per_run_ms = 1e-6 / static_cast<double>(runs_);
  for (const auto& [kind, ns] : op_self_ns_) {
    out.metrics["runtime.op." + kind + ".ms"] = ns * per_run_ms;
  }
  out.metrics["runtime.session_run.ms"] = run_ns_ * per_run_ms;
  out.metrics["runtime.dispatch.ms"] = dispatch_ns_ * per_run_ms;
  out.metrics["runtime.conv_depthwise.ms"] = depthwise_ns_ * per_run_ms;
  out.metrics["runtime.conv_dense.ms"] = dense_ns_ * per_run_ms;
  const double conv_ns = depthwise_ns_ + dense_ns_;
  if (conv_ns > 0) {
    const double gops = conv_ops_ / conv_ns;  // ops per ns == GOP/s
    out.metrics["runtime.conv.gops"] = gops;
    if (conv_roof_gops > 0) out.metrics["runtime.conv.roof_frac"] = gops / conv_roof_gops;
  }
}

}  // namespace perfbench
