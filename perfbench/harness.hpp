#pragma once
// Shared pieces of the benchmark binary: run arguments, the per-run outcome
// the workloads fill in, timing statistics, and the per-op-class ledger built
// from the runtime's own node spans.

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "obs/trace.hpp"
#include "runtime/session.hpp"

namespace perfbench {

using vedliot::Graph;
namespace obs = vedliot::obs;

/// Exact count of heap allocations made by the process so far
/// (alloc_count.cpp replaces the global operator new).
std::uint64_t allocation_count();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;      ///< measurement budget of the run
  bool trace = false;       ///< traced run: per-layer metrics
  double baseline = 0;      ///< untraced figure of a sibling process (trace runs)
  std::string trace_out;    ///< Chrome trace path written by trace runs ("" = none)
};

/// What one workload run measured. Metric names are the canonical names of
/// main.cpp's tables; `extra` holds figures printed for people only.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< throws, wrong outputs, kFailed/kLate responses
  std::uint64_t mismatches = 0;  ///< wrong outputs found by the output checks
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, std::string>> extra;  ///< label, formatted value
  std::vector<std::string> problems;                       ///< first few failures, for stderr
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// p-th percentile (p in [0, 100]) with linear interpolation between ranks;
/// 0 for an empty sample.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) { return percentile(std::move(values), 50); }

/// Peak resident set size of this process (VmHWM), MiB.
double peak_rss_mb();

/// Return freed heap pages to the OS, so each set-up starts from the same
/// resident footprint and peak_rss_mb() does not depend on what earlier
/// repetitions left cached in the allocator.
void release_free_memory();

/// Host speed reference: a fixed int16 multiply-add chain over L1-resident
/// data, written here and independent of the library. On a shared host,
/// co-tenants slow a core by up to 2x for whole runs at a time, and they
/// slow this loop by about the factor they slow the one-thread workloads.
/// Timed between a workload's runs, its best time divided into the
/// workload's best time cancels the host's state. Over 8 processes of 15 s
/// each, on a host in a noisy phase, that took the quartile spread (as a
/// share of the median) of the best ResNet-50 int8 run from 0.13 to 0.04,
/// of the best fleet_overload repetition from 0.18 to 0.06, and of the best
/// fleet set-up from 0.10 to 0.02.
class SpeedReference {
 public:
  /// The loop's best time on the 4-vCPU Xeon (Sapphire Rapids, KVM guest,
  /// AVX2 dispatch) the benchmark was tuned on. Rescaled times read as times
  /// on a core of that speed.
  static constexpr double kNominalUs = 600.0;

  SpeedReference();
  /// Run the loop once and keep its time if it is the best so far.
  void measure();
  /// Best time of all measure() calls, seconds.
  double best_s() const { return best_s_; }
  /// \p t (any time unit) rescaled to a core on which the loop's best time
  /// is kNominalUs.
  double rescale(double t) const { return t * (kNominalUs * 1e-6 / best_s_); }

 private:
  std::vector<std::int16_t> a_, b_;  ///< operands, 8 KiB each
  double best_s_;
};

/// The run environment as JSON (nproc, resolved SIMD level, build type,
/// seed), printed with every result: numbers from a portable-only host or a
/// debug build must never be compared with AVX2 Release ones.
std::string environment_json(const Args& args);

/// Exact heap allocations of one steady-state run of \p session (median of
/// three, after a warm-up run).
double allocations_per_run(vedliot::runtime::Session& session,
                           const std::map<std::string, vedliot::Tensor>& feed);

/// Per-op-class self time from the spans of traced Session::run calls.
/// A span's self time is its duration minus the time its child spans cover,
/// so over one run the op classes plus the run span's own self time
/// ("dispatch") sum exactly to the session.run span.
class OpLedger {
 public:
  /// \p graph is the graph the traced session runs (node names key conv
  /// geometry and operation counts).
  explicit OpLedger(const Graph& graph);

  /// Account the spans of exactly one session.run. Returns false when the
  /// self times do not sum to the run span (a ledger bug or a span leak).
  bool add_run(std::span<const obs::Span> spans);

  std::size_t runs() const { return runs_; }

  /// runtime.op.<Kind>.ms, runtime.conv_{depthwise,dense}.ms,
  /// runtime.session_run.ms, runtime.dispatch.ms, runtime.conv.gops and
  /// runtime.conv.roof_frac against \p conv_roof_gops (0 = unknown).
  void report(Outcome& out, double conv_roof_gops) const;

 private:
  struct ConvInfo {
    bool depthwise = false;
    double ops = 0;  ///< arithmetic ops of one execution
  };
  std::map<std::string, ConvInfo> conv_;     ///< by node name
  std::map<std::string, double> op_self_ns_;  ///< by op class
  double run_ns_ = 0;
  double dispatch_ns_ = 0;
  double depthwise_ns_ = 0;
  double dense_ns_ = 0;
  double conv_ops_ = 0;
  std::size_t runs_ = 0;
};

// Workload entry points.
Outcome run_resnet50_int8(const Args& args);   // inference.cpp
Outcome run_mobilenetv3_f32(const Args& args);  // inference.cpp
Outcome run_fleet_exec(const Args& args);       // fleet.cpp
Outcome run_fleet_overload(const Args& args);   // fleet.cpp

}  // namespace perfbench
