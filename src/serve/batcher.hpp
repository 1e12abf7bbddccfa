#pragma once
/// \file batcher.hpp
/// \brief Dynamic batcher: coalesces admitted requests into GEMM-friendly
/// batched session runs with bitwise-singleton-equal outputs.
///
/// The batcher holds one session over one rebatched clone of the deployment
/// graph, built at the widest power-of-two *bucket* width W. The session
/// takes a run's lane count from its feeds, so that one compiled plan runs
/// a coalesced group of any n <= W lanes as it is, with no padding — legal
/// because every kernel computes batch lanes independently with a fixed
/// accumulation order, so lane i of a batched run is bitwise identical to a
/// singleton run of the same input (the soak harness checks this by CRC).
/// The batcher is the one place that decides which output lanes belong to
/// which request: run() stacks the group's inputs, runs once and splits the
/// output at each input's own lane width (split_batch).
/// The bucket widths 1, 2, 4, ..., W remain the grain of the batch cap and
/// of the fleet's analytic cost model.
///
/// `max_batch` stays the knob the brownout ladder shrinks live:
/// set_exec_config() caps the session at the widest bucket under the new
/// cap, so a wider group is refused by the session's feed-lane check — the
/// shrink is enforced by the runtime, not by batcher bookkeeping (test_fleet
/// pins this).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/session.hpp"

namespace vedliot::serve {

/// Bucket widths 1, 2, 4, ..., W, with W the first power of two >= \p max_batch.
std::vector<std::int64_t> bucket_widths(std::int64_t max_batch);

/// The widest of \p widths (ascending) not above \p cap, with cap 0 meaning
/// no cap. A cap below the narrowest bucket still serves singletons:
/// shedding all traffic because a controller said "1" on a 2-wide ladder
/// would be a brownout that browns fully out.
std::int64_t widest_bucket(std::span<const std::int64_t> widths, std::int64_t cap);

class DynamicBatcher {
 public:
  struct Config {
    std::int64_t max_batch = 8;   ///< widest bucket (rounded up to a power of two)
    runtime::ExecConfig exec;     ///< initial envelope; exec.max_batch 0 = max_batch
    bool quantized = false;       ///< the session via make_quantized_session
  };

  /// Builds the session over a rebatched clone of \p graph (which must be
  /// single-input single-output with materialized weights; the clone is
  /// owned, the original only needs to live through construction).
  DynamicBatcher(const Graph& graph, Config config);

  /// Run one coalesced group. Each input tensor contributes dim-0 lanes
  /// (a batch-2 request is one tensor of batch 2); outputs align 1:1 with
  /// inputs at the same lane widths. Total lanes must be in
  /// [1, effective_max_batch()] — the caller coalesces against that cap.
  std::vector<Tensor> run(std::span<const Tensor> inputs);

  /// Cap the session at the widest bucket under \p exec's max_batch (see
  /// file comment) and forward the rest of the envelope.
  void set_exec_config(const runtime::ExecConfig& exec);

  /// Widest batch run() currently accepts: widest_bucket under the live cap.
  std::int64_t effective_max_batch() const { return session_->max_batch(); }

  /// Bucket widths, ascending (1, 2, 4, ..., W).
  const std::vector<std::int64_t>& bucket_widths() const { return widths_; }

 private:
  std::vector<std::int64_t> widths_;
  std::unique_ptr<Graph> graph_;  ///< rebatched clone at the widest bucket
  std::unique_ptr<runtime::Session> session_;
};

}  // namespace vedliot::serve
