#pragma once
/// \file random_graph.hpp
/// \brief Seeded generator of small, verifier-clean graphs for differential
/// tests of the execution engine.
///
/// random_graph(seed, dtype) draws one single-input graph of 4-12 operator
/// nodes over an NCHW image of at most 16x16 pixels and 16 channels. The op
/// mix is what both dtypes execute:
///  - Conv2d with kernel {1, 3}, stride {1, 2}, pad {0, 1}; dense (groups 1),
///    grouped or depthwise; fused Relu, fused Relu6 or no fused activation;
///  - Dense, on a flattened map;
///  - MaxPool, AvgPool and GlobalAvgPool;
///  - Add of two equal shapes, and channel Concat;
///  - standalone Relu and Relu6, Flatten and Softmax.
/// f32 graphs also draw BatchNorm, LeakyRelu, Sigmoid, HSigmoid, HSwish,
/// Mish, Tanh, a channel-broadcast Mul and Upsample. Batch is 1 or 3; int8
/// graphs use Concat only at batch 1 (the int8 engine's limit). Branches
/// arise by reading an earlier tensor, so graphs may have several outputs.
///
/// Weights are materialized from the same seed. Every graph passes
/// analysis::verify_graph; int8 graphs still need act_scales
/// (opt::calibrate_activations) before they execute.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "tensor/dtype.hpp"
#include "util/rng.hpp"

namespace vedliot::testutil {

namespace random_graph_detail {

inline std::int64_t out_extent(std::int64_t in, std::int64_t k, std::int64_t stride,
                               std::int64_t pad) {
  return in + 2 * pad < k ? 0 : (in + 2 * pad - k) / stride + 1;
}

/// Build state: the graph, the tensors drawn so far (by rank) and the rng.
struct Builder {
  Graph g;
  Rng rng;
  std::int64_t batch;
  std::vector<NodeId> maps;   ///< rank-4 tensors
  std::vector<NodeId> flats;  ///< rank-2 tensors
  int added = 0;   ///< operator nodes so far
  int budget = 0;  ///< operator nodes to draw

  std::int64_t pick(std::int64_t lo, std::int64_t hi) { return rng.uniform_int(lo, hi); }
  bool coin() { return pick(0, 1) == 1; }

  /// Mostly the newest tensor (a chain), sometimes an earlier one (a branch).
  NodeId primary(const std::vector<NodeId>& pool) {
    if (pool.size() == 1 || pick(0, 9) < 6) return pool.back();
    return pool[static_cast<std::size_t>(pick(0, static_cast<std::int64_t>(pool.size()) - 1))];
  }

  const Shape& shape(NodeId id) const { return g.node(id).out_shape; }

  NodeId add(OpKind kind, std::vector<NodeId> inputs, AttrMap attrs = {}) {
    const NodeId id = g.add(kind, "n" + std::to_string(added++), std::move(inputs),
                            std::move(attrs));
    (shape(id).rank() == 4 ? maps : flats).push_back(id);
    return id;
  }

  bool conv(NodeId x) {
    const Shape& s = shape(x);
    const std::int64_t k = coin() ? 3 : 1, stride = pick(1, 2), pad = pick(0, 1);
    if (out_extent(s.h(), k, stride, pad) < 1 || out_extent(s.w(), k, stride, pad) < 1) {
      return false;
    }
    std::vector<std::int64_t> divisors;  // proper group counts of a grouped conv
    for (std::int64_t d = 2; d < s.c(); ++d) {
      if (s.c() % d == 0) divisors.push_back(d);
    }
    std::int64_t groups = 1, out_c = pick(1, 16);
    const std::int64_t mode = pick(0, 2);
    if (mode == 1 && !divisors.empty()) {  // grouped: 1..16/groups outputs per group
      groups = divisors[static_cast<std::size_t>(
          pick(0, static_cast<std::int64_t>(divisors.size()) - 1))];
      out_c = groups * pick(1, 16 / groups);
    } else if (mode == 2) {  // depthwise
      groups = out_c = s.c();
    }
    AttrMap a;
    a.set_int("out_channels", out_c);
    a.set_int("kernel", k);
    a.set_int("stride", stride);
    a.set_int("pad", pad);
    a.set_int("groups", groups);
    a.set_int("bias", pick(0, 1));
    const std::int64_t act = pick(0, 2);
    if (act > 0) a.set_str("fused_act", act == 1 ? "Relu" : "Relu6");
    add(OpKind::kConv2d, {x}, std::move(a));
    return true;
  }

  bool pool(NodeId x, OpKind kind) {
    const Shape& s = shape(x);
    const std::int64_t k = pick(2, 3), stride = pick(1, 2), pad = pick(0, 1);
    if (out_extent(s.h(), k, stride, pad) < 1 || out_extent(s.w(), k, stride, pad) < 1) {
      return false;
    }
    AttrMap a;
    a.set_int("kernel", k);
    a.set_int("stride", stride);
    a.set_int("pad", pad);
    add(kind, {x}, std::move(a));
    return true;
  }

  /// Add of \p x and another tensor of its exact shape.
  bool add_equal(NodeId x) {
    std::vector<NodeId> same;
    for (const auto* pool : {&maps, &flats}) {
      for (NodeId id : *pool) {
        if (id != x && shape(id) == shape(x)) same.push_back(id);
      }
    }
    if (same.empty()) return false;
    const NodeId y =
        same[static_cast<std::size_t>(pick(0, static_cast<std::int64_t>(same.size()) - 1))];
    add(OpKind::kAdd, coin() ? std::vector<NodeId>{x, y} : std::vector<NodeId>{y, x});
    return true;
  }

  /// Channel concat of \p x with one or two other maps of its N, H and W.
  bool concat(NodeId x) {
    std::vector<NodeId> inputs{x};
    std::int64_t channels = shape(x).c();
    for (NodeId id : maps) {
      const Shape& s = shape(id);
      if (id == x || s.h() != shape(x).h() || s.w() != shape(x).w()) continue;
      if (channels + s.c() > 16 || inputs.size() == 3) continue;
      if (inputs.size() == 2 && !coin()) continue;
      inputs.push_back(id);
      channels += s.c();
    }
    if (inputs.size() < 2) return false;
    AttrMap a;
    a.set_int("axis", 1);
    add(OpKind::kConcat, std::move(inputs), std::move(a));
    return true;
  }

  /// SE-style channel scale: x * GlobalAvgPool(x), either operand order.
  void channel_mul(NodeId x) {
    const NodeId v = add(OpKind::kGlobalAvgPool, {x});
    add(OpKind::kMul, coin() ? std::vector<NodeId>{x, v} : std::vector<NodeId>{v, x});
  }

  /// Draw one op (possibly with a helper node); false when the drawn op does
  /// not apply to the tensors at hand, so the caller draws again.
  bool step(bool int8) {
    const bool have_map = !maps.empty();
    switch (pick(0, int8 ? 14 : 23)) {
      case 0: case 1: case 2:
        return have_map && conv(primary(maps));
      case 3: case 4: {
        // Flatten a map first when no rank-2 tensor exists, and at times anyway.
        if (flats.empty() || (have_map && coin())) {
          if (!have_map || added + 2 > budget) return false;
          add(OpKind::kFlatten, {primary(maps)});
        }
        AttrMap a;
        a.set_int("units", pick(1, 16));
        a.set_int("bias", pick(0, 1));
        const std::int64_t act = pick(0, 2);
        if (act > 0) a.set_str("fused_act", act == 1 ? "Relu" : "Relu6");
        add(OpKind::kDense, {primary(flats)}, std::move(a));
        return true;
      }
      case 5: return have_map && pool(primary(maps), OpKind::kMaxPool);
      case 6: return have_map && pool(primary(maps), OpKind::kAvgPool);
      case 7:
        if (!have_map) return false;
        add(OpKind::kGlobalAvgPool, {primary(maps)});
        return true;
      case 8: return add_equal(any());
      case 9: case 10: return have_map && (!int8 || batch == 1) && concat(primary(maps));
      case 11: add(OpKind::kRelu, {any()}); return true;
      case 12: add(OpKind::kRelu6, {any()}); return true;
      case 13:
        if (!have_map) return false;
        add(OpKind::kFlatten, {primary(maps)});
        return true;
      case 14: add(OpKind::kSoftmax, {any()}); return true;
      // f32 only from here on.
      case 15: {
        if (!have_map) return false;
        AttrMap a;
        a.set_float("epsilon", 1e-5);
        add(OpKind::kBatchNorm, {primary(maps)}, std::move(a));
        return true;
      }
      case 16: {
        AttrMap a;
        a.set_float("alpha", 0.05 + 0.05 * static_cast<double>(pick(0, 4)));
        add(OpKind::kLeakyRelu, {any()}, std::move(a));
        return true;
      }
      case 17: add(OpKind::kSigmoid, {any()}); return true;
      case 18: add(OpKind::kHSigmoid, {any()}); return true;
      case 19: add(OpKind::kHSwish, {any()}); return true;
      case 20: add(OpKind::kMish, {any()}); return true;
      case 21: add(OpKind::kTanh, {any()}); return true;
      case 22:
        if (!have_map || added + 2 > budget) return false;
        channel_mul(primary(maps));
        return true;
      default: {
        if (!have_map) return false;
        const NodeId x = primary(maps);
        if (shape(x).h() * 2 > 16 || shape(x).w() * 2 > 16) return false;
        AttrMap a;
        a.set_int("scale", 2);
        add(OpKind::kUpsample, {x}, std::move(a));
        return true;
      }
    }
  }

  /// Any tensor, rank 4 or 2 (for the shape-preserving ops).
  NodeId any() {
    if (flats.empty()) return primary(maps);
    if (maps.empty()) return primary(flats);
    return coin() ? primary(maps) : primary(flats);
  }
};

}  // namespace random_graph_detail

/// The seed's graph for \p dtype (kFP32 or kINT8), weights materialized.
inline Graph random_graph(std::uint64_t seed, DType dtype) {
  const bool int8 = dtype == DType::kINT8;
  random_graph_detail::Builder b{Graph((int8 ? "rg_s8_" : "rg_f32_") + std::to_string(seed)),
                                 Rng(seed), 1, {}, {}};
  b.batch = b.coin() ? 3 : 1;
  const Shape in{b.batch, b.pick(1, 8), b.pick(4, 16), b.pick(4, 16)};
  b.maps.push_back(b.g.add_input("x", in));
  b.budget = static_cast<int>(b.pick(4, 12));
  while (b.added < b.budget) {
    (void)b.step(int8);
  }
  Rng weights(seed ^ 0x9E3779B97F4A7C15ull);
  b.g.materialize_weights(weights);
  return std::move(b.g);
}

}  // namespace vedliot::testutil
