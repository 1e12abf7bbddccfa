#pragma once
/// \file kernels.hpp
/// \brief Compute kernels of the execution engine: im2col packing,
/// cache-blocked GEMM, batched dense, direct depthwise and pooling — each
/// written once over a dtype policy (F32Policy, S8Policy) that carries the
/// element types and the epilogue.
///
/// The kernel restructuring the FPGA co-design line of work (arXiv:2504.09151)
/// applies in hardware, applied to the host runtime: convolution becomes a
/// [patch x cols] packing step plus a dense matrix multiply whose inner loop
/// is contiguous in memory and auto-vectorizable, instead of a 6-deep scalar
/// loop with per-element bounds checks.
///
/// Determinism contract: every kernel accumulates each output element over a
/// fixed k-order (k = 0..K-1), so results are bitwise identical no matter how
/// the row range is partitioned across threads. Parallel callers split the
/// *row* dimension only.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "graph/op.hpp"

namespace vedliot::runtime_kernels {

/// Scalar activation of the f32 epilogues and activation ops. kIdentity passes
/// through; alpha feeds LeakyRelu.
float apply_activation(float x, OpKind kind, double alpha);

/// Round to nearest and saturate to int8, counting saturations (values
/// outside [-128, 127] — information lost). Input quantization uses it as
/// is; weights go through quantize_int8_channel (tensor/quant.hpp), which
/// rounds and saturates the same way.
inline std::int8_t requant_sat(double v, std::uint64_t& saturations) {
  const double r = std::nearbyint(v);
  if (r > 127.0) {
    ++saturations;
    return 127;
  }
  if (r < -128.0) {
    ++saturations;
    return -128;
  }
  return static_cast<std::int8_t>(r);
}

/// The one requantization every int8 epilogue shares: requant_sat, then the
/// fused-activation clamp window [q_lo, q_hi] (semantics, not counted as
/// saturation).
inline std::int8_t requant_clamped(double v, std::int32_t q_lo, std::int32_t q_hi,
                                   std::uint64_t& saturations) {
  std::int8_t q = requant_sat(v, saturations);
  if (q < q_lo) q = static_cast<std::int8_t>(q_lo);
  if (q > q_hi) q = static_cast<std::int8_t>(q_hi);
  return q;
}

// ---------------------------------------------------------------------------
// Dtype policies. Every kernel below, the microkernels' shared tile store and
// the executor's per-op bodies are written once over a policy P, which
// carries the element and accumulator types and the per-channel constants:
// the accumulator's initial value (the bias) and the epilogue that turns an
// accumulator — or a pool's double average — into an output element. Each
// kernel returns the int8 saturations it counted (always 0 for f32), so
// parallel callers sum per-chunk counts into a partition-independent total.
// ---------------------------------------------------------------------------

/// f32: float operands and accumulators; the epilogue applies the fused (or
/// the op's own) activation.
struct F32Policy {
  using Elem = float;
  using Acc = float;
  using PackedA = float;  ///< microkernel panels (microkernel.hpp)
  using PackedB = float;
  static constexpr double kMaxInit = -std::numeric_limits<double>::infinity();  ///< MaxPool

  const float* bias = nullptr;
  OpKind act = OpKind::kIdentity;
  double alpha = 0.01;

  /// The epilogue of one output channel.
  struct Channel {
    OpKind act;
    double alpha;
    template <typename V>
    float operator()(V v, std::uint64_t& /*saturations*/) const {
      const float f = static_cast<float>(v);
      return act == OpKind::kIdentity ? f : apply_activation(f, act, alpha);
    }
  };

  float init(std::int64_t c) const { return bias != nullptr ? bias[c] : 0.0f; }
  Channel channel(std::int64_t /*c*/) const { return {act, alpha}; }
  /// Epilogue of an op reading input \p i: f32 runs at scale 1.
  Channel scaled(std::size_t /*i*/) const { return {act, alpha}; }
  /// The policy seen from output channel \p first on (one group's GEMM).
  F32Policy from(std::int64_t first) const {
    return {bias != nullptr ? bias + first : nullptr, act, alpha};
  }
  float sum(float a, float b, std::uint64_t& /*saturations*/) const { return a + b; }
};

/// int8: symmetric int8 operands and exact int32 accumulation; the epilogue
/// requantizes — value times a `double` multiplier (per output channel for
/// Conv2d/Dense, input over output scale for the other ops), requant_clamped
/// into the fused-activation window, counting saturations.
struct S8Policy {
  using Elem = std::int8_t;
  using Acc = std::int32_t;
  using PackedA = std::int32_t;  ///< int16 k-pairs of weights
  using PackedB = std::int8_t;   ///< k-pair interleaved activations
  static constexpr double kMaxInit = std::numeric_limits<std::int32_t>::min();

  const std::int32_t* bias = nullptr;  ///< at in_scale * w_scale[c]
  const double* mult = nullptr;        ///< in_scale * w_scale[c] / out_scale
  std::int32_t q_lo = -128, q_hi = 127;
  const double* in_scales = nullptr;   ///< activation scale of each input
  double out_scale = 1.0;

  struct Channel {
    double mult;
    std::int32_t q_lo, q_hi;
    template <typename V>
    std::int8_t operator()(V v, std::uint64_t& saturations) const {
      return requant_clamped(static_cast<double>(v) * mult, q_lo, q_hi, saturations);
    }
  };

  std::int32_t init(std::int64_t c) const { return bias != nullptr ? bias[c] : 0; }
  Channel channel(std::int64_t c) const { return {mult[c], q_lo, q_hi}; }
  Channel scaled(std::size_t i) const { return {in_scales[i] / out_scale, q_lo, q_hi}; }
  S8Policy from(std::int64_t first) const {
    return {bias != nullptr ? bias + first : nullptr, mult + first, q_lo, q_hi, in_scales,
            out_scale};
  }
  /// Add of two equal-shape inputs, each at its own scale.
  std::int8_t sum(std::int8_t a, std::int8_t b, std::uint64_t& saturations) const {
    const double v = static_cast<double>(a) * in_scales[0] + static_cast<double>(b) * in_scales[1];
    return requant_clamped(v / out_scale, q_lo, q_hi, saturations);
  }
};

/// Conv2D loop geometry of one batch lane, shared by both dtypes; the lane
/// count is the run's (Executor), not the plan's.
struct Conv2dGeometry {
  std::int64_t in_c = 0, in_h = 0, in_w = 0;
  std::int64_t out_c = 0, out_h = 0, out_w = 0;
  std::int64_t kernel = 1, stride = 1, pad = 0, groups = 1;

  std::int64_t icg() const { return in_c / groups; }   ///< input channels / group
  std::int64_t ocg() const { return out_c / groups; }  ///< output channels / group
  std::int64_t patch() const { return icg() * kernel * kernel; }  ///< GEMM K
  std::int64_t cols() const { return out_h * out_w; }             ///< GEMM N
  bool is_depthwise() const { return groups == in_c && ocg() == 1; }
};

// The kernels below are called from the executor's pool lambdas. They stay
// out of line: inlined there, GCC spilled the depthwise tap loop's pointers
// to the stack (MobileNetV3's depthwise rows ran 30% slower).

/// Pack one (lane, group) slice of an NCHW input into a row-major
/// [patch() x cols()] column matrix; out-of-image taps become zero.
/// Rows [row_lo, row_hi) only, so packing itself can be partitioned.
/// T is float or std::int8_t.
template <typename T> [[gnu::noinline]]
void im2col(const T* in, const Conv2dGeometry& g, std::int64_t b, std::int64_t group,
            std::int64_t row_lo, std::int64_t row_hi, T* col) {
  const std::int64_t icg = g.icg(), k = g.kernel, OH = g.out_h, OW = g.out_w;
  const std::int64_t IH = g.in_h, IW = g.in_w;
  const std::int64_t cols = g.cols();
  for (std::int64_t row = row_lo; row < row_hi; ++row) {
    const std::int64_t ic = row / (k * k);
    const std::int64_t kh = (row / k) % k;
    const std::int64_t kw = row % k;
    const std::int64_t in_c = group * icg + ic;
    const T* plane = in + ((b * g.in_c + in_c) * IH) * IW;
    T* dst = col + row * cols;
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      const std::int64_t ih = oh * g.stride - g.pad + kh;
      if (ih < 0 || ih >= IH) {
        std::memset(dst + oh * OW, 0, static_cast<std::size_t>(OW) * sizeof(T));
        continue;
      }
      const T* src_row = plane + ih * IW;
      T* dst_row = dst + oh * OW;
      const std::int64_t iw0 = -g.pad + kw;
      if (g.stride == 1) {
        // valid source range [max(0,-iw0), min(OW, IW-iw0))
        const std::int64_t lo = std::max<std::int64_t>(0, -iw0);
        const std::int64_t hi = std::min<std::int64_t>(OW, IW - iw0);
        if (lo > 0) std::memset(dst_row, 0, static_cast<std::size_t>(lo) * sizeof(T));
        if (hi > lo) {
          std::memcpy(dst_row + lo, src_row + iw0 + lo,
                      static_cast<std::size_t>(hi - lo) * sizeof(T));
        }
        if (hi < OW) {
          std::memset(dst_row + std::max(hi, lo), 0,
                      static_cast<std::size_t>(OW - std::max(hi, lo)) * sizeof(T));
        }
      } else {
        for (std::int64_t ow = 0; ow < OW; ++ow) {
          const std::int64_t iw = ow * g.stride + iw0;
          dst_row[ow] = (iw >= 0 && iw < IW) ? src_row[iw] : T{0};
        }
      }
    }
  }
}

/// Row range [m_lo, m_hi) of C = A·B through the policy: each accumulator
/// starts at p.init(m) and leaves through p.channel(m). A is [M x K]
/// row-major (conv weights), B is [K x N] row-major (the im2col matrix), C
/// is [M x N] row-major. Accumulation in fixed k-order; zero weights are
/// skipped (pruned weights are exact zeros).
template <typename P> [[gnu::noinline]]
std::uint64_t gemm_rows(const typename P::Elem* a, const typename P::Elem* b,
                        typename P::Elem* c, std::int64_t m_lo, std::int64_t m_hi, std::int64_t n,
                        std::int64_t k, const P& p) {
  using Acc = typename P::Acc;
  // Column blocking keeps a [K x kNB] panel of B plus one accumulator row
  // hot; the kp loop is an axpy over a contiguous row of B, which the
  // compiler vectorizes. k-order is 0..K-1 for every element regardless of
  // blocking, so the result is independent of the (m) partition.
  constexpr std::int64_t kNB = 256;
  std::uint64_t saturations = 0;
  for (std::int64_t j0 = 0; j0 < n; j0 += kNB) {
    const std::int64_t jn = std::min(kNB, n - j0);
    for (std::int64_t m = m_lo; m < m_hi; ++m) {
      Acc acc[kNB];
      const Acc init = p.init(m);
      for (std::int64_t j = 0; j < jn; ++j) acc[j] = init;
      const auto* arow = a + m * k;
      for (std::int64_t kp = 0; kp < k; ++kp) {
        const Acc av = arow[kp];
        if (av == Acc{0}) continue;  // pruned weights are exact zeros
        const auto* brow = b + kp * n + j0;
        for (std::int64_t j = 0; j < jn; ++j) acc[j] += av * static_cast<Acc>(brow[j]);
      }
      const auto epilogue = p.channel(m);
      auto* crow = c + m * n + j0;
      for (std::int64_t j = 0; j < jn; ++j) crow[j] = epilogue(acc[j], saturations);
    }
  }
  return saturations;
}

/// Row range [u_lo, u_hi) of the batched dense layer y = x·Wᵀ through the
/// policy: w is [units x features] row-major, xt is the transposed
/// activation matrix [features x batch] (a [1 x features] input is its own
/// transpose, so batch == 1 passes the input unchanged), y is
/// [batch x units] row-major. Each weight row is read once and serves every
/// lane — the batched path's throughput edge over per-request dispatch —
/// while each lane keeps the fixed f = 0..features-1 accumulation order, so
/// a lane of a batch-8 run is bitwise identical to the same sample run alone.
template <typename P> [[gnu::noinline]]
std::uint64_t dense_rows(const typename P::Elem* w, const typename P::Elem* xt,
                         typename P::Elem* y, std::int64_t u_lo, std::int64_t u_hi,
                         std::int64_t batch, std::int64_t features, std::int64_t units,
                         const P& p) {
  using Acc = typename P::Acc;
  // Lane blocking bounds the accumulator tile; the inner j loop carries
  // independent per-lane sums, so it vectorizes without reassociating any
  // single lane's f-order. A per-sample dot product is a serial dependency
  // chain the compiler cannot reorder — amortizing the weight row across
  // lanes is where the batch >= 2 speedup comes from. No zero-skip here:
  // dense weights are not pruned, and the f32 sums must match the
  // historical per-sample loop bit for bit.
  constexpr std::int64_t kJB = 64;
  std::uint64_t saturations = 0;
  for (std::int64_t j0 = 0; j0 < batch; j0 += kJB) {
    const std::int64_t jn = std::min(kJB, batch - j0);
    for (std::int64_t u = u_lo; u < u_hi; ++u) {
      Acc acc[kJB];
      const Acc init = p.init(u);
      for (std::int64_t j = 0; j < jn; ++j) acc[j] = init;
      const auto* wrow = w + u * features;
      for (std::int64_t f = 0; f < features; ++f) {
        const Acc wv = wrow[f];
        const auto* xrow = xt + f * batch + j0;
        for (std::int64_t j = 0; j < jn; ++j) acc[j] += wv * static_cast<Acc>(xrow[j]);
      }
      const auto epilogue = p.channel(u);
      for (std::int64_t j = 0; j < jn; ++j) {
        y[(j0 + j) * units + u] = epilogue(acc[j], saturations);
      }
    }
  }
  return saturations;
}

/// Direct depthwise convolution (groups == channels) for channel range
/// [c_lo, c_hi) of lane b: im2col degenerates to a k*k dot per pixel, so
/// packing overhead is pure loss — keep it direct. Accumulation in fixed
/// tap order, through the policy like gemm_rows.
template <typename P> [[gnu::noinline]]
std::uint64_t depthwise(const typename P::Elem* in, const typename P::Elem* w,
                        typename P::Elem* out, const Conv2dGeometry& g, std::int64_t b,
                        std::int64_t c_lo, std::int64_t c_hi, const P& p) {
  using Acc = typename P::Acc;
  const std::int64_t k = g.kernel, IH = g.in_h, IW = g.in_w, OH = g.out_h, OW = g.out_w;
  std::uint64_t saturations = 0;
  for (std::int64_t c = c_lo; c < c_hi; ++c) {
    const auto* plane = in + ((b * g.in_c + c) * IH) * IW;
    const auto* wc = w + c * k * k;
    auto* oplane = out + ((b * g.out_c + c) * OH) * OW;
    const Acc init = p.init(c);
    const auto epilogue = p.channel(c);
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      for (std::int64_t ow = 0; ow < OW; ++ow) {
        Acc acc = init;
        for (std::int64_t kh = 0; kh < k; ++kh) {
          const std::int64_t ih = oh * g.stride - g.pad + kh;
          if (ih < 0 || ih >= IH) continue;
          for (std::int64_t kw = 0; kw < k; ++kw) {
            const std::int64_t iw = ow * g.stride - g.pad + kw;
            if (iw < 0 || iw >= IW) continue;
            acc += static_cast<Acc>(plane[ih * IW + iw]) * static_cast<Acc>(wc[kh * k + kw]);
          }
        }
        oplane[oh * OW + ow] = epilogue(acc, saturations);
      }
    }
  }
  return saturations;
}

/// Max or average pooling of planes [plane_lo, plane_hi) (lane x channel)
/// over g's kernel, stride and pad. A window sums its in-image taps in
/// row-major order, in double (exact for int8 values); its max, or its
/// average over those taps, leaves through p.scaled(0). GlobalAvgPool is one
/// window as large as the plane.
template <typename P> [[gnu::noinline]]
std::uint64_t pool(const typename P::Elem* in, typename P::Elem* out, const Conv2dGeometry& g,
                   bool is_max, std::int64_t plane_lo, std::int64_t plane_hi, const P& p) {
  const std::int64_t k = g.kernel, IH = g.in_h, IW = g.in_w, OH = g.out_h, OW = g.out_w;
  const auto epilogue = p.scaled(0);
  std::uint64_t saturations = 0;
  for (std::int64_t bc = plane_lo; bc < plane_hi; ++bc) {
    const auto* plane = in + bc * IH * IW;
    auto* oplane = out + bc * OH * OW;
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      for (std::int64_t ow = 0; ow < OW; ++ow) {
        double acc = is_max ? P::kMaxInit : 0.0;
        std::int64_t count = 0;
        const std::int64_t iw0 = ow * g.stride - g.pad;  // the in-image taps of a row
        const std::int64_t kw_lo = std::max<std::int64_t>(0, -iw0), kw_hi = std::min(k, IW - iw0);
        for (std::int64_t kh = 0; kh < k; ++kh) {
          const std::int64_t ih = oh * g.stride - g.pad + kh;
          if (ih < 0 || ih >= IH) continue;
          for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
            const double v = plane[ih * IW + iw0 + kw];
            acc = is_max ? std::max(acc, v) : acc + v;
            ++count;
          }
        }
        const double v = is_max ? acc : count > 0 ? acc / static_cast<double>(count) : 0.0;
        oplane[oh * OW + ow] = epilogue(v, saturations);
      }
    }
  }
  return saturations;
}

}  // namespace vedliot::runtime_kernels
