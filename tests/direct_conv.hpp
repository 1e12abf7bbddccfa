#pragma once
/// \file direct_conv.hpp
/// \brief Test-local numerical references: Conv2D as the direct 6-deep loop
/// nest, f32 (double accumulation) and int8 (int32 accumulation over the
/// engine's channel quantizer, quantize_int8_channel, and its fixed-point
/// Requant).
///
/// A reference run walks the graph node by node: every Conv2D goes through
/// the direct loop here, every other node through the engine as a
/// single-node graph. Comparing it with a whole-graph engine run therefore
/// checks the GEMM convolution path (im2col + microkernel or scalar GEMM)
/// against the loop it replaced: within float tolerance for f32, bit for
/// bit — outputs and saturation count — for int8, whose integer sums are
/// order-independent.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/kernels.hpp"
#include "runtime/session.hpp"
#include "tensor/quant.hpp"

namespace vedliot::testutil {

/// \p n as the only op of a fresh graph fed by inputs "in0", "in1", ...
/// (carrying the producers' act_scale).
inline Graph single_node_graph(const Graph& g, const Node& n) {
  Graph one(n.name);
  std::vector<NodeId> ins;
  for (std::size_t i = 0; i < n.inputs.size(); ++i) {
    const Node& src = g.node(n.inputs[i]);
    const NodeId in = one.add_input("in" + std::to_string(i), src.out_shape);
    if (src.attrs.has("act_scale")) {
      one.node(in).attrs.set_float("act_scale", src.attrs.get_float("act_scale"));
    }
    ins.push_back(in);
  }
  one.node(one.add(n.kind, n.name, ins, n.attrs)).weights = n.weights;
  return one;
}

inline runtime_kernels::Conv2dGeometry conv_geometry(const Graph& g, const Node& n) {
  const Shape& in = g.node(n.inputs.at(0)).out_shape;
  return {in.c(), in.h(), in.w(), n.out_shape.c(), n.out_shape.h(), n.out_shape.w(),
          n.attrs.get_int("kernel"), n.attrs.get_int_or("stride", 1),
          n.attrs.get_int_or("pad", 0), n.attrs.get_int_or("groups", 1)};
}

/// The direct f32 convolution: double accumulation per output element, then
/// the node's fused activation.
inline Tensor direct_conv_f32(const Graph& g, const Node& n, const Tensor& in) {
  const auto geo = conv_geometry(g, n);
  const Tensor& w = n.weights[0];
  const Tensor* bias = n.weights.size() > 1 ? &n.weights[1] : nullptr;
  const std::string fused = n.attrs.get_str_or("fused_act", "");
  const OpKind act = fused.empty() ? OpKind::kIdentity : parse_op(fused);
  const double alpha = n.attrs.get_float_or("fused_alpha", 0.01);
  const std::int64_t icg = geo.icg(), ocg = geo.ocg(), k = geo.kernel;
  Tensor out(n.out_shape);
  for (std::int64_t b = 0; b < n.out_shape.n(); ++b) {
    for (std::int64_t oc = 0; oc < geo.out_c; ++oc) {
      const auto g_idx = oc / ocg;
      for (std::int64_t oh = 0; oh < geo.out_h; ++oh) {
        for (std::int64_t ow = 0; ow < geo.out_w; ++ow) {
          double acc = bias ? bias->at(static_cast<std::size_t>(oc)) : 0.0;
          for (std::int64_t ic = 0; ic < icg; ++ic) {
            for (std::int64_t kh = 0; kh < k; ++kh) {
              const auto ih = oh * geo.stride - geo.pad + kh;
              if (ih < 0 || ih >= geo.in_h) continue;
              for (std::int64_t kw = 0; kw < k; ++kw) {
                const auto iw = ow * geo.stride - geo.pad + kw;
                if (iw < 0 || iw >= geo.in_w) continue;
                acc += static_cast<double>(in.at4(b, g_idx * icg + ic, ih, iw)) *
                       static_cast<double>(w.at4(oc, ic, kh, kw));
              }
            }
          }
          const float v = static_cast<float>(acc);
          out.at4(b, oc, oh, ow) =
              act == OpKind::kIdentity ? v : runtime_kernels::apply_activation(v, act, alpha);
        }
      }
    }
  }
  return out;
}

/// Whole-graph f32 reference: direct Conv2D, engine for every other node.
inline Tensor direct_conv_run(const Graph& g, const Tensor& input) {
  std::map<NodeId, Tensor> values;
  for (NodeId id : g.topo_order()) {
    const Node& n = g.node(id);
    if (n.kind == OpKind::kInput) {
      values[id] = input;
    } else if (n.kind == OpKind::kConv2d) {
      values[id] = direct_conv_f32(g, n, values.at(n.inputs[0]));
    } else {
      std::map<std::string, Tensor> feeds;
      for (std::size_t i = 0; i < n.inputs.size(); ++i) {
        feeds["in" + std::to_string(i)] = values.at(n.inputs[i]);
      }
      const Graph one = single_node_graph(g, n);
      runtime::Session exec(one);
      values[id] = exec.run(feeds).outputs.begin()->second;
    }
  }
  return values.at(g.outputs().front());
}

/// Whole-graph int8 reference returning the output's codes and scale, like
/// an int8 Session's quantized(output) after run_single: Conv2D through the
/// direct integer loop, every other node through the int8 engine (fed its
/// dequantized inputs, which requantize exactly).
class DirectConvInt8 {
 public:
  explicit DirectConvInt8(const Graph& g) : g_(g) {}

  QTensor run_single(const Tensor& input) {
    std::map<NodeId, QTensor> values;
    for (NodeId id : g_.topo_order()) {
      const Node& n = g_.node(id);
      if (n.kind == OpKind::kInput) {
        values[id] = quantize_fixed(input, scale(id));
      } else if (n.kind == OpKind::kConv2d) {
        values[id] = conv(n, values.at(n.inputs[0]));
      } else {
        std::map<std::string, Tensor> feeds;
        for (std::size_t i = 0; i < n.inputs.size(); ++i) {
          feeds["in" + std::to_string(i)] = values.at(n.inputs[i]).dequantize();
        }
        const Graph one = single_node_graph(g_, n);
        runtime::Session exec(one, DType::kINT8);
        values[id] = quantize_fixed(exec.run(feeds).outputs.begin()->second, scale(id));
        saturations_ += exec.saturations();
      }
    }
    return values.at(g_.outputs().front());
  }

  std::uint64_t saturations() const { return saturations_; }

 private:
  double scale(NodeId id) const {
    const double s = g_.node(id).attrs.get_float("act_scale");
    return s > 0 ? s : 1e-9;
  }

  /// The direct int8 convolution over per-output-channel quantized weights.
  QTensor conv(const Node& n, const QTensor& x) {
    const auto geo = conv_geometry(g_, n);
    const double in_scale = scale(n.inputs[0]), so = scale(n.id);
    const std::string fused = n.attrs.get_str_or("fused_act", "");
    const std::int32_t q_lo = fused == "Relu" || fused == "Relu6" ? 0 : -128;
    const std::int32_t q_hi =
        fused == "Relu6" ? std::min(127, static_cast<std::int32_t>(std::nearbyint(6.0 / so))) : 127;
    const Tensor& w = n.weights[0];
    const std::int64_t icg = geo.icg(), k = geo.kernel;
    const auto per = static_cast<std::size_t>(icg * k * k);
    const auto x_at = [&](std::int64_t b, std::int64_t c, std::int64_t h, std::int64_t wi) {
      return static_cast<std::int32_t>(
          x.data[static_cast<std::size_t>(((b * geo.in_c + c) * geo.in_h + h) * geo.in_w + wi)]);
    };
    QTensor out{n.out_shape, std::vector<std::int8_t>(), so};
    out.data.reserve(static_cast<std::size_t>(n.out_shape.numel()));
    std::vector<std::int8_t> wq(static_cast<std::size_t>(w.numel()));
    std::vector<std::int32_t> bias(static_cast<std::size_t>(geo.out_c), 0);
    std::vector<runtime_kernels::Requant> requant(static_cast<std::size_t>(geo.out_c));
    for (std::size_t oc = 0; oc < static_cast<std::size_t>(geo.out_c); ++oc) {
      const double b = n.weights.size() > 1 ? n.weights[1].at(oc) : 0.0;
      const Int8Channel q =
          quantize_int8_channel(w.data().subspan(oc * per, per), b, in_scale, wq.data() + oc * per);
      bias[oc] = q.bias;
      requant[oc] = runtime_kernels::Requant::from_real(in_scale * q.scale / so);
    }
    for (std::int64_t b = 0; b < n.out_shape.n(); ++b) {
      for (std::int64_t oc = 0; oc < geo.out_c; ++oc) {
        const std::int8_t* wrow = wq.data() + static_cast<std::size_t>(oc) * per;
        const runtime_kernels::S8Policy::Channel epilogue{
            requant[static_cast<std::size_t>(oc)], q_lo, q_hi};
        for (std::int64_t oh = 0; oh < geo.out_h; ++oh) {
          for (std::int64_t ow = 0; ow < geo.out_w; ++ow) {
            std::int32_t acc = bias[static_cast<std::size_t>(oc)];
            for (std::int64_t ic = 0; ic < icg; ++ic) {
              for (std::int64_t kh = 0; kh < k; ++kh) {
                const auto ih = oh * geo.stride - geo.pad + kh;
                if (ih < 0 || ih >= geo.in_h) continue;
                for (std::int64_t kw = 0; kw < k; ++kw) {
                  const auto iw = ow * geo.stride - geo.pad + kw;
                  if (iw < 0 || iw >= geo.in_w) continue;
                  acc += x_at(b, (oc / geo.ocg()) * icg + ic, ih, iw) *
                         wrow[(ic * k + kh) * k + kw];
                }
              }
            }
            out.data.push_back(epilogue(acc, saturations_));
          }
        }
      }
    }
    return out;
  }

  const Graph& g_;
  std::uint64_t saturations_ = 0;
};

}  // namespace vedliot::testutil
