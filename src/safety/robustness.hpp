#pragma once
/// \file robustness.hpp
/// \brief Output robustness service (Sec. IV-B, second direction):
/// "periodically submitting both the input and the output data to a
/// robustness service, which holds a copy of the DL model and can verify
/// the correctness of the output data" — catching systematic faults
/// injected into the deployed model at run time (hardware faults, attacks).

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "runtime/session.hpp"
#include "util/rng.hpp"

namespace vedliot::safety {

/// Outcome of one submission to the robustness service. Submissions are
/// period-sampled, so "no fault flagged" comes in two distinct flavours:
/// the pair was never looked at vs. the pair was verified clean.
enum class CheckResult {
  kNotChecked,     ///< skipped by period sampling
  kCheckedOk,      ///< verified against the golden model, within tolerance
  kCheckedFaulty,  ///< verified and found divergent — systematic fault
};

std::string_view check_result_name(CheckResult r);

/// Holds a golden copy of the model and re-checks sampled (input, output)
/// pairs against it.
class RobustnessService {
 public:
  struct Config {
    std::size_t check_period = 8;  ///< verify every n-th submission
    double tolerance = 1e-4;       ///< max |golden - submitted| per element

    /// Optional metrics mirror (must outlive the service): counters
    /// `vedliot.safety.checks` / `vedliot.safety.faults` track checks_run()
    /// and faults_detected() 1:1, and the gauge
    /// `vedliot.safety.last_divergence` tracks last_divergence() — the same
    /// mirror contract the serving layer keeps for its event counters.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// Takes its own clone of the (weights-materialized) graph — the golden
  /// reference is intentionally independent of the deployed instance.
  RobustnessService(const Graph& golden_model, Config config);

  /// Submit an observed pair; period sampling decides whether it is
  /// actually verified this round, and the result says what happened.
  CheckResult submit(const Tensor& input, const Tensor& output);

  /// Swap the golden reference — an OTA update moved the deployment to a
  /// new model, so correctness is now defined by the new weights. Counters
  /// keep running; only the reference (and its executor) are replaced.
  void replace_golden(const Graph& new_golden);

  std::size_t submissions() const { return submissions_; }
  std::size_t checks_run() const { return checks_; }
  std::size_t faults_detected() const { return faults_; }

  /// Max-abs |golden - submitted| divergence measured by the most recent
  /// *verified* submission (0 until the first check runs). Serving layers
  /// surface it in degraded-quality events so a checked-faulty response
  /// carries how far off it was.
  double last_divergence() const { return last_divergence_; }

 private:
  Graph golden_;
  std::unique_ptr<runtime::Session> session_;
  Config cfg_;
  std::size_t submissions_ = 0;
  std::size_t checks_ = 0;
  std::size_t faults_ = 0;
  double last_divergence_ = 0.0;
};

/// Run-time fault injector: emulates the systematic faults the service must
/// catch (bit flips in weights, zeroed channels, stuck activations).
class FaultInjector {
 public:
  explicit FaultInjector(Rng& rng) : rng_(rng) {}

  /// Flip one bit in each of n randomly-chosen weights. Float tensors flip
  /// a high-mantissa/low-exponent bit (visible, rarely inf/nan — like real
  /// SEUs); tensors on an int8-quantized node flip one of the 8 bits of the
  /// per-channel-quantized code and map back through the scale, which is
  /// what a flip in deployed int8 memory actually does to the dequantized
  /// value. With \p include_bias, bias tensors fault too (weights[1..]),
  /// not just the kernel. Returns the (node, weight tensor index) each bit
  /// flipped in, in flip order.
  std::vector<std::pair<NodeId, std::size_t>> flip_weight_bits(Graph& g, std::size_t n_bits,
                                                               bool include_bias = false);

  /// Zero an entire randomly-chosen output channel of a random conv layer.
  void zero_random_channel(Graph& g);

  /// Scale all weights of one random layer (gain fault / attack).
  void scale_random_layer(Graph& g, float factor);

 private:
  std::vector<NodeId> parametric_nodes(const Graph& g) const;
  Rng& rng_;
};

}  // namespace vedliot::safety
