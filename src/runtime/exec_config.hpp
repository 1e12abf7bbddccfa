#pragma once
/// \file exec_config.hpp
/// \brief One execution-resource knob set shared across the stack.
///
/// ExecConfig is the single currency for the admission batch cap, the
/// intra-op thread count and the dispatch level: RunOptions embeds one, the
/// Session takes it whole (and enforces the cap on every run's feeds) and
/// exposes it live (set_exec_config / exec_config), each
/// BrownoutStep carries the one its rung serves at, and the fleet batcher
/// consumes it as the batch-coalescing width. A brownout step-down therefore
/// becomes visible *through* the session it degrades, which the regression
/// tests pin.

#include <cstdint>

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
};

}  // namespace vedliot::runtime
