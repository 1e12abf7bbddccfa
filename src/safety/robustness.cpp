#include "safety/robustness.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "tensor/quant.hpp"
#include "util/error.hpp"

namespace vedliot::safety {

RobustnessService::RobustnessService(const Graph& golden_model, Config config)
    : golden_(golden_model.clone()), cfg_(config) {
  VEDLIOT_CHECK(cfg_.check_period >= 1, "check period must be >= 1");
  session_ = runtime::make_session(golden_, {});
}

void RobustnessService::replace_golden(const Graph& new_golden) {
  session_.reset();  // the session holds a reference into the old golden graph
  golden_ = new_golden.clone();
  session_ = runtime::make_session(golden_, {});
}

std::string_view check_result_name(CheckResult r) {
  switch (r) {
    case CheckResult::kNotChecked: return "not-checked";
    case CheckResult::kCheckedOk: return "checked-ok";
    case CheckResult::kCheckedFaulty: return "checked-faulty";
  }
  throw InvalidArgument("unknown check result");
}

CheckResult RobustnessService::submit(const Tensor& input, const Tensor& output) {
  ++submissions_;
  if (submissions_ % cfg_.check_period != 0) return CheckResult::kNotChecked;
  ++checks_;
  const Tensor golden = session_->run_single(input);
  VEDLIOT_CHECK(golden.shape() == output.shape(),
                "robustness service: output shape mismatch");
  const float diff = max_abs_diff(golden, output);
  last_divergence_ = diff;
  CheckResult result = CheckResult::kCheckedOk;
  if (diff > cfg_.tolerance) {
    ++faults_;
    result = CheckResult::kCheckedFaulty;
  }
  if (cfg_.metrics) {
    cfg_.metrics->counter("vedliot.safety.checks").inc();
    if (result == CheckResult::kCheckedFaulty) {
      cfg_.metrics->counter("vedliot.safety.faults").inc();
    }
    cfg_.metrics->gauge("vedliot.safety.last_divergence").set(last_divergence_);
  }
  return result;
}

std::vector<NodeId> FaultInjector::parametric_nodes(const Graph& g) const {
  std::vector<NodeId> out;
  for (NodeId id : g.topo_order()) {
    const Node& n = g.node(id);
    if ((n.kind == OpKind::kConv2d || n.kind == OpKind::kDense) && !n.weights.empty()) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<std::pair<NodeId, std::size_t>> FaultInjector::flip_weight_bits(Graph& g,
                                                                            std::size_t n_bits,
                                                                            bool include_bias) {
  const auto nodes = parametric_nodes(g);
  VEDLIOT_CHECK(!nodes.empty(), "graph has no parametric nodes to fault");
  std::vector<std::pair<NodeId, std::size_t>> flipped;
  for (std::size_t i = 0; i < n_bits; ++i) {
    const auto nid = nodes[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
    Node& n = g.node(nid);
    std::size_t tensor = 0;
    if (include_bias && n.weights.size() > 1) {
      tensor = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(n.weights.size()) - 1));
    }
    Tensor& w = n.weights[tensor];
    const auto idx = static_cast<std::size_t>(rng_.uniform_int(0, w.numel() - 1));
    if (n.weight_dtype == DType::kINT8 && tensor == 0) {
      // Deployed int8 memory: flip one of the 8 bits of the per-channel
      // quantized code, then dequantize — the fault as the executor's
      // integer kernels would actually see it. The channel quantizes as the
      // executor's does, bias widening included; that needs the input's
      // calibrated scale, and before calibration there is no widening.
      const auto per = static_cast<std::size_t>(w.numel() / w.shape().dim(0));
      const auto& in_attrs = g.node(n.inputs.at(0)).attrs;
      const double in_scale = in_attrs.get_float_or("act_scale", 1.0);
      const double bias =
          in_attrs.has("act_scale") && n.weights.size() > 1 ? n.weights[1].at(idx / per) : 0.0;
      std::vector<std::int8_t> codes(per);
      const double ws = quantize_int8_channel(w.data().subspan(idx / per * per, per), bias,
                                              in_scale > 0 ? in_scale : 1e-9, codes.data())
                            .scale;
      const int bit = static_cast<int>(rng_.uniform_int(0, 7));
      const auto code =
          static_cast<std::int8_t>(static_cast<std::uint8_t>(codes[idx % per]) ^ (1u << bit));
      w.at(idx) = static_cast<float>(static_cast<double>(code) * ws);
    } else {
      // Flip within bits 20..29 (high mantissa / low exponent): visible but
      // rarely produces inf/nan, like real SEUs in practice.
      const int bit = static_cast<int>(rng_.uniform_int(20, 29));
      auto u = std::bit_cast<std::uint32_t>(w.at(idx));
      u ^= (1u << bit);
      w.at(idx) = std::bit_cast<float>(u);
    }
    flipped.emplace_back(nid, tensor);
  }
  g.touch();  // a live session recompiles: repacked panels, requantized codes
  return flipped;
}

void FaultInjector::zero_random_channel(Graph& g) {
  const auto nodes = parametric_nodes(g);
  VEDLIOT_CHECK(!nodes.empty(), "graph has no parametric nodes to fault");
  const auto nid = nodes[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
  Tensor& w = g.node(nid).weights[0];
  const auto oc = w.shape().dim(0);
  const auto per = static_cast<std::size_t>(w.numel() / oc);
  const auto c = static_cast<std::size_t>(rng_.uniform_int(0, oc - 1));
  auto chan = w.data().subspan(c * per, per);
  std::fill(chan.begin(), chan.end(), 0.0f);
  g.touch();
}

void FaultInjector::scale_random_layer(Graph& g, float factor) {
  const auto nodes = parametric_nodes(g);
  VEDLIOT_CHECK(!nodes.empty(), "graph has no parametric nodes to fault");
  const auto nid = nodes[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
  for (float& v : g.node(nid).weights[0].data()) v *= factor;
  g.touch();
}

}  // namespace vedliot::safety
