#pragma once
/// \file exec_config.hpp
/// \brief One execution-resource knob set shared across the stack.
///
/// Before this header existed the admission batch cap and the intra-op
/// thread count lived twice: once in runtime::RunOptions and once in the
/// serving layer's brownout rungs, and the two copies drifted. ExecConfig
/// is the single currency: RunOptions embeds one, Session exposes it live
/// (set_exec_config / exec_config), each BrownoutStep carries the one its
/// rung serves at, and the fleet batcher consumes it as the batch-coalescing
/// width. A brownout step-down therefore becomes visible *through* the
/// session it degrades, which the regression tests pin.

#include <cstdint>
#include <string>

#include "util/cpu.hpp"

namespace vedliot::runtime {

/// Execution-resource knobs for one deployed model instance.
struct ExecConfig {
  /// Admission batch cap: feeds whose leading dimension exceeds this are
  /// rejected, and batchers never coalesce wider than this. 0 = no limit.
  std::int64_t max_batch = 0;

  /// Intra-op parallelism: kernels split output rows/channels across this
  /// many threads (including the caller). 0 selects the hardware
  /// concurrency. Output bits never depend on this value.
  unsigned threads = 1;

  /// Kernel dispatch level request (util::resolve_simd_level applies the
  /// VEDLIOT_FORCE_PORTABLE / VEDLIOT_SIMD env overrides and availability
  /// on top). kAuto picks the best level the host supports; kPortable pins
  /// the scalar reference kernels — the testable fallback the dispatch
  /// layer must always keep selectable.
  util::SimdLevel simd = util::SimdLevel::kAuto;

  /// Inter-op parallelism: independent graph branches (dataflow waves) run
  /// concurrently across this many threads when > 1, for f32 and int8
  /// alike. Intra-op threading is suspended inside a parallel wave, and
  /// output bits (and int8 saturation counts) never depend on this value.
  unsigned inter_op = 1;

  bool operator==(const ExecConfig& other) const {
    return max_batch == other.max_batch && threads == other.threads && simd == other.simd &&
           inter_op == other.inter_op;
  }
  bool operator!=(const ExecConfig& other) const { return !(*this == other); }

  /// "ExecConfig{max_batch=4, threads=2, simd=auto, inter_op=1}" for logs
  /// and violation messages.
  std::string to_string() const {
    return "ExecConfig{max_batch=" + std::to_string(max_batch) +
           ", threads=" + std::to_string(threads) +
           ", simd=" + std::string(util::simd_level_name(simd)) +
           ", inter_op=" + std::to_string(inter_op) + "}";
  }
};

}  // namespace vedliot::runtime
