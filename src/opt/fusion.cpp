#include "opt/fusion.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace vedliot::opt {

PassResult FuseBatchNormPass::run(Graph& g) {
  PassResult r;
  r.pass_name = name();
  for (NodeId id : g.topo_order()) {
    Node& bn = g.node(id);
    if (bn.dead || bn.kind != OpKind::kBatchNorm) continue;
    const NodeId prod_id = bn.inputs.at(0);
    Node& prod = g.node(prod_id);
    if (prod.kind != OpKind::kConv2d && prod.kind != OpKind::kDense) continue;
    // Only safe if the producer feeds nothing else (otherwise the un-normalized
    // value is still needed).
    if (g.consumers(prod_id).size() != 1) continue;
    if (prod.attrs.get_int_or("fused_bn", 0)) continue;

    if (!prod.weights.empty() && bn.weights.size() == 4) {
      // Numeric fold.
      const auto& gamma = bn.weights[0];
      const auto& beta = bn.weights[1];
      const auto& mean = bn.weights[2];
      const auto& var = bn.weights[3];
      const double eps = bn.attrs.get_float_or("epsilon", 1e-5);
      const auto oc = prod.weights[0].shape().dim(0);
      const auto per = static_cast<std::size_t>(prod.weights[0].numel() / oc);

      // Ensure a bias tensor exists to absorb the shift. Take the weight
      // reference only afterwards: emplace_back may reallocate the vector.
      if (prod.weights.size() == 1) {
        prod.weights.emplace_back(Shape{oc});
        prod.attrs.set_int("bias", 1);
      }
      Tensor& w = prod.weights[0];
      Tensor& b = prod.weights[1];

      for (std::int64_t c = 0; c < oc; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        const float scale = static_cast<float>(gamma.at(ci) / std::sqrt(var.at(ci) + eps));
        const float shift = static_cast<float>(beta.at(ci) - mean.at(ci) * scale);
        auto chan = w.data().subspan(ci * per, per);
        for (float& v : chan) v *= scale;
        b.at(ci) = b.at(ci) * scale + shift;
      }
    }
    // The fold (numeric now, or at materialization for analytic graphs)
    // always needs a bias tensor to absorb the BatchNorm shift.
    prod.attrs.set_int("bias", 1);
    prod.attrs.set_int("fused_bn", 1);
    g.bypass(id);
    ++r.nodes_changed;
  }
  r.detail = std::to_string(r.nodes_changed) + " BatchNorm nodes folded";
  return r;
}

PassResult FuseActivationPass::run(Graph& g) {
  PassResult r;
  r.pass_name = name();
  for (NodeId id : g.topo_order()) {
    Node& act = g.node(id);
    if (act.dead || !op_is_activation(act.kind)) continue;
    const NodeId prod_id = act.inputs.at(0);
    Node& prod = g.node(prod_id);
    // An Add takes only the clamps the int8 executor runs (ResNet's
    // residual Add+Relu); Conv2d and Dense take any activation.
    const bool into_add =
        prod.kind == OpKind::kAdd && (act.kind == OpKind::kRelu || act.kind == OpKind::kRelu6);
    if (prod.kind != OpKind::kConv2d && prod.kind != OpKind::kDense && !into_add) continue;
    if (g.consumers(prod_id).size() != 1) continue;
    if (!prod.attrs.get_str_or("fused_act", "").empty()) continue;

    prod.attrs.set_str("fused_act", std::string(op_name(act.kind)));
    if (act.kind == OpKind::kLeakyRelu) {
      prod.attrs.set_float("fused_alpha", act.attrs.get_float_or("alpha", 0.01));
    }
    g.bypass(id);
    ++r.nodes_changed;
  }
  r.detail = std::to_string(r.nodes_changed) + " activations fused into producers";
  return r;
}

namespace {
/// Structural key for CSE: kind + input ids + attributes (weight-free only).
std::string cse_key(const Node& n) {
  std::string key(op_name(n.kind));
  key += '(';
  for (NodeId in : n.inputs) {
    key += std::to_string(in);
    key += ',';
  }
  key += ')';
  for (const auto& [name, value] : n.attrs.raw()) {
    key += name;
    key += '=';
    if (const auto* i = std::get_if<std::int64_t>(&value)) {
      key += std::to_string(*i);
    } else if (const auto* d = std::get_if<double>(&value)) {
      key += std::to_string(*d);
    } else if (const auto* s = std::get_if<std::string>(&value)) {
      key += *s;
    } else if (const auto* v = std::get_if<std::vector<std::int64_t>>(&value)) {
      for (auto x : *v) {
        key += std::to_string(x);
        key += ',';
      }
    }
    key += ';';
  }
  return key;
}
}  // namespace

PassResult CsePass::run(Graph& g) {
  PassResult r;
  r.pass_name = name();
  std::map<std::string, NodeId> seen;
  const auto outputs = g.outputs();
  for (NodeId id : g.topo_order()) {
    Node& n = g.node(id);
    if (n.dead || n.kind == OpKind::kInput) continue;
    // Graph outputs are the model's API: never fold one away.
    if (std::find(outputs.begin(), outputs.end(), id) != outputs.end()) continue;
    // Parametric nodes own distinct weights: never merge them.
    if (op_has_weights(n.kind) || !n.weights.empty()) continue;
    const std::string key = cse_key(n);
    auto [it, inserted] = seen.emplace(key, id);
    if (inserted) continue;
    // Duplicate: rewire every consumer to the canonical node, then kill it.
    for (NodeId consumer : g.consumers(id)) {
      g.replace_input(consumer, id, it->second);
    }
    if (g.consumers(id).empty()) {
      n.dead = true;
      ++r.nodes_changed;
    }
  }
  r.detail = std::to_string(r.nodes_changed) + " duplicate nodes merged";
  return r;
}

PassResult EliminateIdentityPass::run(Graph& g) {
  PassResult r;
  r.pass_name = name();
  for (NodeId id : g.topo_order()) {
    const Node& n = g.node(id);
    if (n.dead || n.kind != OpKind::kIdentity) continue;
    // Keep identities that are graph outputs (bypassing would drop the name).
    const auto outs = g.outputs();
    if (std::find(outs.begin(), outs.end(), id) != outs.end()) continue;
    g.bypass(id);
    ++r.nodes_changed;
  }
  r.detail = std::to_string(r.nodes_changed) + " Identity nodes removed";
  return r;
}

}  // namespace vedliot::opt
