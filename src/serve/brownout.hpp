#pragma once
/// \file brownout.hpp
/// \brief Hysteretic brownout controller: which rung of the degradation
/// ladder the fleet should be on, given a scalar load signal.
///
/// Level 0 is full quality; higher levels are progressively cheaper
/// configurations (int8 precision, smaller admission batch, smaller
/// fallback model). The rungs themselves live here too since the PR 7 API
/// redesign: a BrownoutStep names a ModelVariant and carries the
/// runtime::ExecConfig the serving session runs under at that rung, so one
/// struct travels from ladder definition through Session::set_exec_config
/// and a shrink is visible wherever the session is shared (the dynamic
/// batcher reads the same cap).
///
/// The controller is deliberately sluggish in both directions: the load
/// must sit above the high watermark for `step_down_after` consecutive
/// observations before degrading one rung, and below the low watermark for
/// the (longer) `step_up_after` before recovering one rung, so a load level
/// between the watermarks holds the current rung and the fleet cannot flap
/// between qualities on a noisy signal.

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/exec_config.hpp"

namespace vedliot::serve {

/// One rung's model configuration. The graph provides the cost-model
/// workload (and, in execute mode, the weights actually run); it must
/// outlive the fleet.
struct ModelVariant {
  std::string name;            ///< "fp32", "int8", "fallback", ...
  const Graph* graph = nullptr;
  DType dtype = DType::kFP32;
  bool quantized = false;      ///< execute via make_quantized_session
};

/// One rung of the degradation ladder: which variant serves and the
/// execution-resource envelope (admission batch cap + intra-op threads) at
/// this level. ladder[0] is the healthy config. `exec.max_batch == 0`
/// means unlimited admission.
struct BrownoutStep {
  std::size_t variant = 0;
  runtime::ExecConfig exec;

  BrownoutStep() = default;
  BrownoutStep(std::size_t variant_, std::int64_t max_batch_, unsigned threads_ = 1)
      : variant(variant_), exec{max_batch_, threads_} {}
};

struct BrownoutConfig {
  double high_watermark = 0.75;  ///< load >= this counts toward degrading
  double low_watermark = 0.25;   ///< load <= this counts toward recovering
  int step_down_after = 3;       ///< consecutive hot observations per rung
  int step_up_after = 12;        ///< consecutive calm observations per rung
};

class BrownoutLadder {
 public:
  /// \p steps must be non-empty; steps.front() is the healthy
  /// configuration and the deepest level is steps.size() - 1.
  BrownoutLadder(BrownoutConfig config, std::vector<BrownoutStep> steps);

  /// Feed one load observation (the fleet samples once per control tick).
  /// Returns the level delta applied this observation: +1 stepped one rung
  /// down in quality, -1 recovered one rung, 0 held.
  int observe(double load);

  int level() const { return level_; }

  /// The active rung.
  const BrownoutStep& current() const;

  const std::vector<BrownoutStep>& steps() const { return steps_; }

 private:
  BrownoutConfig cfg_;
  std::vector<BrownoutStep> steps_;
  int level_ = 0;
  int hot_streak_ = 0;
  int calm_streak_ = 0;
};

}  // namespace vedliot::serve
