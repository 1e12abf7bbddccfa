#include "opt/quantize.hpp"

#include "runtime/session.hpp"
#include "util/error.hpp"

namespace vedliot::opt {

QuantizeWeightsPass::QuantizeWeightsPass(DType dtype, bool per_channel)
    : dtype_(dtype), per_channel_(per_channel) {
  VEDLIOT_CHECK(dtype_is_integer(dtype), "QuantizeWeightsPass requires an integer dtype");
}

PassResult QuantizeWeightsPass::run(Graph& g) {
  PassResult r;
  r.pass_name = name();
  for (NodeId id : g.topo_order()) {
    Node& n = g.node(id);
    if ((n.kind != OpKind::kConv2d && n.kind != OpKind::kDense) || n.weights.empty()) continue;
    Tensor& w = n.weights[0];
    if (per_channel_ && w.shape().rank() == 4) {
      fake_quantize_per_channel(w, dtype_);
    } else {
      fake_quantize(w, dtype_);
    }
    n.weight_dtype = dtype_;
    ++r.nodes_changed;
  }
  r.detail = std::to_string(r.nodes_changed) + " layers quantized to " +
             std::string(dtype_name(dtype_));
  return r;
}

PassResult Fp16CastPass::run(Graph& g) {
  PassResult r;
  r.pass_name = name();
  for (NodeId id : g.topo_order()) {
    Node& n = g.node(id);
    if (n.weights.empty()) continue;
    for (Tensor& w : n.weights) cast_fp16_inplace(w);
    n.weight_dtype = DType::kFP16;
    ++r.nodes_changed;
  }
  r.detail = std::to_string(r.nodes_changed) + " layers cast to fp16";
  return r;
}

ActivationRanges calibrate_activations(Graph& g, const std::vector<Tensor>& samples,
                                       Calibration cal, double percentile) {
  VEDLIOT_CHECK(!samples.empty(), "calibration requires at least one sample");
  const auto ins = g.inputs();
  VEDLIOT_CHECK(ins.size() == 1, "calibration supports single-input graphs");

  // Accumulate all observed values per node across samples, then choose
  // ranges once (memory-heavy but simple; calibration sets are small). The
  // run's observer sees every node's value right after it is written.
  std::map<NodeId, std::vector<float>> observed;
  runtime::Session session(g);
  const runtime::Session::Observer record = [&](NodeId id) {
    const Tensor t = session.value(id);
    auto& dst = observed[id];
    dst.insert(dst.end(), t.data().begin(), t.data().end());
  };
  for (const auto& s : samples) (void)session.run({{g.node(ins.front()).name, s}}, record);

  ActivationRanges ranges;
  for (auto& [id, values] : observed) {
    Node& n = g.node(id);
    const auto qp = choose_symmetric(values, DType::kINT8, cal, percentile);
    n.attrs.set_float("act_scale", qp.scale);
    ranges[n.name] = qp;
  }
  return ranges;
}

}  // namespace vedliot::opt
