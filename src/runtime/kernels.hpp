#pragma once
/// \file kernels.hpp
/// \brief Compute kernels of the execution engine: im2col packing, the
/// cache-blocked scalar GEMM of every Conv2d and Dense step, direct
/// depthwise and pooling — each written once over a dtype policy
/// (F32Policy, S8Policy) that carries the element types and the epilogue.
///
/// The kernel restructuring the FPGA co-design line of work (arXiv:2504.09151)
/// applies in hardware, applied to the host runtime: convolution becomes a
/// [patch x cols] packing step plus a dense matrix multiply whose inner loop
/// is contiguous in memory and auto-vectorizable, instead of a 6-deep scalar
/// loop with per-element bounds checks.
///
/// Determinism contract: every kernel accumulates each output element over a
/// fixed order (a GEMM's k = 0..K-1, a window's in-image taps in (kh, kw)
/// order), so results are bitwise identical no matter how the work is
/// partitioned across threads. Parallel callers split whole output rows,
/// channels, planes or tile panels (a transposed GEMM step splits its weight
/// column panels), never one element's sum.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>

#include "graph/op.hpp"

namespace vedliot::runtime_kernels {

/// std::clamp(x, lo, hi) by value, the same result for every x (NaN and −0
/// included): std::clamp returns a reference, over which GCC keeps a branch
/// per element (mispredicted on data around the edges) and does not
/// vectorize.
inline float clamp_value(float x, float lo, float hi) {
  const float t = x < lo ? lo : x;
  return hi < t ? hi : t;
}

/// The f32 activation of kind \p K: the one formula per kind, which every f32
/// epilogue and activation op evaluates, per element or per row. kIdentity
/// (and any kind that is not an activation) passes through; alpha feeds
/// LeakyRelu.
template <OpKind K>
inline float activate(float x, float alpha) {
  if constexpr (K == OpKind::kRelu) {
    return x > 0.0f ? x : 0.0f;
  } else if constexpr (K == OpKind::kRelu6) {
    return clamp_value(x, 0.0f, 6.0f);
  } else if constexpr (K == OpKind::kLeakyRelu) {
    return x > 0.0f ? x : alpha * x;
  } else if constexpr (K == OpKind::kSigmoid) {
    return 1.0f / (1.0f + std::exp(-x));
  } else if constexpr (K == OpKind::kHSigmoid) {
    return clamp_value(x / 6.0f + 0.5f, 0.0f, 1.0f);
  } else if constexpr (K == OpKind::kHSwish) {
    return x * activate<OpKind::kHSigmoid>(x, alpha);
  } else if constexpr (K == OpKind::kTanh) {
    return std::tanh(x);
  } else if constexpr (K == OpKind::kMish) {
    return x * std::tanh(std::log1p(std::exp(x)));  // x·tanh(softplus(x))
  } else {
    return x;
  }
}

/// fn(std::integral_constant<OpKind, kind>{}) for an activation \p kind, and
/// with kIdentity for any other kind: the one switch over activation kinds,
/// taken once per element or once per row.
template <typename Fn>
inline decltype(auto) visit_activation(OpKind kind, Fn&& fn) {
  using K = OpKind;
  switch (kind) {
    case K::kRelu: return fn(std::integral_constant<K, K::kRelu>{});
    case K::kRelu6: return fn(std::integral_constant<K, K::kRelu6>{});
    case K::kLeakyRelu: return fn(std::integral_constant<K, K::kLeakyRelu>{});
    case K::kSigmoid: return fn(std::integral_constant<K, K::kSigmoid>{});
    case K::kHSigmoid: return fn(std::integral_constant<K, K::kHSigmoid>{});
    case K::kHSwish: return fn(std::integral_constant<K, K::kHSwish>{});
    case K::kTanh: return fn(std::integral_constant<K, K::kTanh>{});
    case K::kMish: return fn(std::integral_constant<K, K::kMish>{});
    default: return fn(std::integral_constant<K, K::kIdentity>{});
  }
}

/// Scalar activation of the f32 epilogues and activation ops: activate<kind>,
/// inline at every call site.
[[gnu::always_inline]] inline float apply_activation(float x, OpKind kind, double alpha) {
  return visit_activation(kind, [&](auto k) {
    return activate<decltype(k)::value>(x, static_cast<float>(alpha));
  });
}

/// Round a float value to nearest and saturate it to int8, counting
/// saturations (values outside [-128, 127] — information lost). Only the
/// dtype boundary requantizes a float: feed quantization and the int8
/// Softmax's float core. Weights go through quantize_int8_channel
/// (tensor/quant.hpp), which rounds and saturates the same way.
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

/// A positive real ratio in fixed point (the gemmlowp/TFLite form): an int32
/// multiplier and a right shift, applied in exact integer arithmetic as
/// round-half-up (v·multiplier + 2^(shift−1)) >> shift. The one
/// requantization of every int8 epilogue: Conv2d/Dense accumulators (ratio
/// in_scale·w_scale[c] / out_scale), pool windows and elementwise ops (an
/// input's scale over the output's).
struct Requant {
  std::int32_t multiplier = 0;
  std::int32_t shift = 1;  ///< in [1, 62]

  /// \p real at the shift that normalizes the multiplier to [2^30, 2^31):
  /// the most precise form, within 1 of nearbyint(v·real) for every int32 v
  /// and equal to it but near ties. A ratio below 2^-32 keeps shift 62 and a
  /// smaller multiplier (every int32 v then rounds to 0); one of 2^30 or
  /// more keeps shift 1 and the largest multiplier (every nonzero v
  /// saturates int8, as it would exactly).
  static Requant from_real(double real);
  /// \p real at a given shift: multiplier = round(real·2^shift), which must
  /// fit int32.
  static Requant from_real(double real, std::int32_t shift);

  /// v times the ratio, rounded half up. Exact for any int32 v: the product
  /// stays below 2^62 in int64.
  std::int64_t apply(std::int64_t v) const {
    return (v * multiplier + (std::int64_t{1} << (shift - 1))) >> shift;
  }
};

/// Saturate a requantized value to int8, counting values outside
/// [-128, 127], then clamp it into the fused-activation window
/// [q_lo, q_hi] ⊆ [-128, 127] (semantics, not counted as saturation).
inline std::int8_t saturate_clamped(std::int64_t v, std::int32_t q_lo, std::int32_t q_hi,
                                    std::uint64_t& saturations) {
  saturations += static_cast<std::uint64_t>((v < -128) | (v > 127));
  return static_cast<std::int8_t>(std::clamp<std::int64_t>(v, q_lo, q_hi));
}

/// The requants of an int8 elementwise op's inputs, ratios \p ra and \p rb
/// (input scale over output scale; rb = 0 for a one-input rescale), at one
/// shared shift: the largest for which 128·(m_a + m_b) + 2^(shift−1) < 2^31,
/// so every int32 product eltwise_s8 forms, and their sum, fits int32.
/// Ratios above 2^21 (an output range over two million times narrower than
/// the input's, where every nonzero input saturates) are taken as 2^21.
struct EltwiseRequants {
  Requant a, b;
};
EltwiseRequants eltwise_requants(double ra, double rb = 0.0);

/// The one int8 elementwise kernel: y[i] = clamp_[q_lo, q_hi](saturate(
/// (a[i]·ra.multiplier + b[i]·rb.multiplier + 2^(s−1)) >> s)) over n
/// elements, s the shared shift of eltwise_requants. A null \p b drops its
/// term (the one-input rescale of Relu, Relu6, Identity, Flatten and each
/// Concat input). int32 arithmetic over restrict pointers, so the compiler
/// vectorizes it at the baseline ISA, and one body compiled once gives the
/// same bits at every dispatch level. Returns the saturations it counted.
std::uint64_t eltwise_s8(const std::int8_t* __restrict a, const std::int8_t* __restrict b,
                         std::int8_t* __restrict y, std::int64_t n, Requant ra, Requant rb,
                         std::int32_t q_lo, std::int32_t q_hi);

// ---------------------------------------------------------------------------
// Dtype policies. Every kernel below, the microkernels' shared tile store and
// the session's per-op bodies are written once over a policy P, which
// carries the element and accumulator types and the per-channel constants:
// the accumulator's initial value (the bias), the epilogue that turns an
// accumulator — or a pool window's max or sum — into an output element, and
// the elementwise op. Each kernel returns the int8 saturations it counted
// (always 0 for f32), so parallel callers sum per-chunk counts into a
// partition-independent total.
// ---------------------------------------------------------------------------

/// f32: float operands and accumulators; the epilogue applies the fused (or
/// the op's own) activation.
struct F32Policy {
  using Elem = float;
  using Acc = float;
  using PoolAcc = double;  ///< a pool window's max or sum
  using PackedA = float;   ///< microkernel panels (microkernel.hpp)
  using PackedB = float;
  static constexpr PoolAcc kMaxInit = -std::numeric_limits<double>::infinity();  ///< MaxPool

  const float* bias = nullptr;
  OpKind act = OpKind::kIdentity;
  double alpha = 0.01;

  /// The epilogue of one output channel, per element or per row.
  struct Channel {
    OpKind act;
    double alpha;
    float operator()(float f, std::uint64_t& /*saturations*/) const {
      return apply_activation(f, act, alpha);
    }
    /// y[i] = (*this)(acc[i]) for i < n (y may be acc), the kind's switch
    /// taken once: a loop per kind the compiler vectorizes where the formula
    /// allows.
    void row(const float* acc, float* y, std::int64_t n, std::uint64_t& /*saturations*/) const {
      const float a = static_cast<float>(alpha);
      visit_activation(act, [&](auto k) {
        constexpr OpKind kKind = decltype(k)::value;
        if constexpr (kKind == OpKind::kHSwish) {
          // x·hsigmoid(x) over a block of hsigmoids: as one expression GCC
          // moves the product into the clamp's branches, where it may trap,
          // and keeps the branches.
          constexpr std::int64_t kBlock = 64;
          float h[kBlock];
          for (std::int64_t i0 = 0; i0 < n; i0 += kBlock) {
            const std::int64_t m = std::min(kBlock, n - i0);
            for (std::int64_t i = 0; i < m; ++i) {
              h[i] = activate<OpKind::kHSigmoid>(acc[i0 + i], a);
            }
            for (std::int64_t i = 0; i < m; ++i) y[i0 + i] = acc[i0 + i] * h[i];
          }
        } else {
          for (std::int64_t i = 0; i < n; ++i) y[i] = activate<kKind>(acc[i], a);
        }
      });
    }
  };
  /// The epilogue of a pool window of \p count taps (1 for a max).
  struct Window {
    std::int64_t count;
    float operator()(double acc, std::uint64_t& /*saturations*/) const {
      return static_cast<float>(count > 0 ? acc / static_cast<double>(count) : 0.0);
    }
  };

  float init(std::int64_t c) const { return bias != nullptr ? bias[c] : 0.0f; }
  Channel channel(std::int64_t /*c*/) const { return {act, alpha}; }
  Window window(std::int64_t count) const { return {count}; }
  /// The policy seen from output channel \p first on (one group's GEMM).
  F32Policy from(std::int64_t first) const {
    return {bias != nullptr ? bias + first : nullptr, act, alpha};
  }
  /// y = act(a + b) over n elements, or y = act(a) when \p b is null (the
  /// activation ops, the copies and each Concat input, whose index \p input
  /// f32 ignores).
  std::uint64_t eltwise(const float* a, const float* b, float* y, std::int64_t n,
                        std::size_t /*input*/ = 0) const {
    const Channel e = channel(0);
    std::uint64_t none = 0;
    if (b == nullptr) {
      e.row(a, y, n, none);
    } else if (act == OpKind::kIdentity) {
      for (std::int64_t i = 0; i < n; ++i) y[i] = a[i] + b[i];  // stays a loop the compiler vectorizes
    } else {
      for (std::int64_t i = 0; i < n; ++i) y[i] = e(a[i] + b[i], none);
    }
    return 0;
  }
};

/// int8: symmetric int8 operands and exact int32 accumulation; the epilogue
/// requantizes through a fixed-point Requant (per output channel for
/// Conv2d/Dense, per input for the other ops, per window tap count for the
/// pools), saturates and clamps into the fused-activation window, counting
/// saturations.
struct S8Policy {
  using Elem = std::int8_t;
  using Acc = std::int32_t;
  using PoolAcc = std::int32_t;  ///< exact window max or sum
  using PackedA = std::int32_t;  ///< int16 k-pairs of weights
  using PackedB = std::int8_t;   ///< k-pair interleaved activations
  static constexpr PoolAcc kMaxInit = std::numeric_limits<std::int32_t>::min();

  const std::int32_t* bias = nullptr;  ///< at in_scale * w_scale[c]
  /// Conv2d/Dense: in_scale * w_scale[c] / out_scale per output channel.
  /// Other ops: input i's scale over the output's (eltwise_requants); pools:
  /// entry c−1 is in_scale / out_scale / c, for a window of c taps.
  const Requant* rq = nullptr;
  std::int32_t q_lo = -128, q_hi = 127;

  struct Channel {
    Requant rq;
    std::int32_t q_lo, q_hi;
    std::int8_t operator()(std::int32_t v, std::uint64_t& saturations) const {
      return saturate_clamped(rq.apply(v), q_lo, q_hi, saturations);
    }
    /// y[i] = (*this)(acc[i]) for i < n.
    void row(const std::int32_t* acc, std::int8_t* y, std::int64_t n,
             std::uint64_t& saturations) const {
      std::uint64_t count = 0;  // a local: stores through y may alias a reference
      for (std::int64_t i = 0; i < n; ++i) y[i] = (*this)(acc[i], count);
      saturations += count;
    }
  };

  std::int32_t init(std::int64_t c) const { return bias != nullptr ? bias[c] : 0; }
  Channel channel(std::int64_t c) const { return {rq[c], q_lo, q_hi}; }
  Channel window(std::int64_t count) const { return {rq[count > 0 ? count - 1 : 0], q_lo, q_hi}; }
  S8Policy from(std::int64_t first) const {
    return {bias != nullptr ? bias + first : nullptr, rq + first, q_lo, q_hi};
  }
  /// Add of two equal-shape inputs (rq[0], rq[1]), or the rescale of input
  /// \p input when \p b is null, through eltwise_s8.
  std::uint64_t eltwise(const std::int8_t* a, const std::int8_t* b, std::int8_t* y,
                        std::int64_t n, std::size_t input = 0) const {
    return b != nullptr ? eltwise_s8(a, b, y, n, rq[0], rq[1], q_lo, q_hi)
                        : eltwise_s8(a, nullptr, y, n, rq[input], Requant{}, q_lo, q_hi);
  }
};

/// Conv2D loop geometry of one batch lane, shared by both dtypes; the lane
/// count is the run's (runtime::Session::run), not the plan's.
struct Conv2dGeometry {
  std::int64_t in_c = 0, in_h = 0, in_w = 0;
  std::int64_t out_c = 0, out_h = 0, out_w = 0;
  std::int64_t kernel = 1, stride = 1, pad = 0, groups = 1;

  std::int64_t icg() const { return in_c / groups; }   ///< input channels / group
  std::int64_t ocg() const { return out_c / groups; }  ///< output channels / group
  std::int64_t patch() const { return icg() * kernel * kernel; }  ///< GEMM K
  std::int64_t cols() const { return out_h * out_w; }             ///< GEMM N
  bool is_depthwise() const { return groups == in_c && ocg() == 1; }
  /// 1x1, stride 1, unpadded: the im2col matrix of a (lane, group) is its
  /// [icg() x cols()] input planes as they lie, a plain copy.
  bool is_pointwise() const { return kernel == 1 && stride == 1 && pad == 0; }
};

// The kernels below are called from the session's pool lambdas. They stay
// out of line ([[gnu::noinline]]): each is one symbol, compiled once at the
// baseline ISA whatever the dispatch level, which the perfbench layout table
// (scripts/perfbench_layout.sh) can place; and inlined into a lambda, a
// kernel's loop pointers can spill to the stack (a depthwise loop so inlined
// ran 30% slower on MobileNetV3).

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

/// Where one GEMM call stores its [M x N] result C, and which axis carries
/// the output channel.
template <typename E>
struct GemmStore {
  E* c = nullptr;
  std::int64_t ldc = 0;
  /// c[j * ldc + r] (an untransposed dense layer's [lanes x units], a
  /// transposed conv's plane), not c[r * ldc + j].
  bool col_major = false;
  /// The per-channel bias and epilogue follow C's column j instead of its
  /// row r (a transposed microkernel step; gemm_rows ignores it).
  bool channel_on_cols = false;
};

/// Row range [m_lo, m_hi) of C = A·B through the policy, stored per \p c:
/// each accumulator starts at p.init(m) and leaves through p.channel(m). A
/// is [M x K] row-major (the weights), B is [K x N] row-major (an im2col
/// matrix, or a dense layer's lanes transposed). The portable kernel of
/// every Conv2d and Dense step. Accumulation in fixed k-order; zero weights
/// are skipped (pruned weights are exact zeros).
template <typename P> [[gnu::noinline]]
std::uint64_t gemm_rows(const typename P::Elem* a, const typename P::Elem* b,
                        GemmStore<typename P::Elem> c, std::int64_t m_lo, std::int64_t m_hi,
                        std::int64_t n, std::int64_t k, const P& p) {
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
      auto* crow = c.c + (c.col_major ? j0 * c.ldc + m : m * c.ldc + j0);
      if (c.col_major) {
        for (std::int64_t j = 0; j < jn; ++j) crow[j * c.ldc] = epilogue(acc[j], saturations);
      } else {
        epilogue.row(acc, crow, jn, saturations);
      }
    }
  }
  return saturations;
}

/// Direct depthwise convolution (groups == channels) for channel range
/// [c_lo, c_hi) of lane b: im2col degenerates to a k*k dot per pixel, so
/// packing overhead is pure loss — keep it direct, as row sweeps. Per
/// (channel, output row) a row of accumulators starts at the bias; each
/// in-image tap (kh, kw) adds x·w over the one interval of output columns
/// whose input column ow·stride − pad + kw lies in the image, a branch-free
/// loop the compiler vectorizes (stride 1 and 2 each get their own); then the
/// row leaves through the policy's row epilogue. Every pixel adds exactly its
/// in-image taps in (kh, kw) order, as a per-pixel loop would, so the bits
/// are those of that loop at every dispatch level and for any channel split.
template <typename P> [[gnu::noinline]]
std::uint64_t depthwise(const typename P::Elem* in, const typename P::Elem* w,
                        typename P::Elem* out, const Conv2dGeometry& g, std::int64_t b,
                        std::int64_t c_lo, std::int64_t c_hi, const P& p) {
  using Acc = typename P::Acc;
  constexpr std::int64_t kRow = 256;  // accumulators of one row block
  const std::int64_t k = g.kernel, s = g.stride, pad = g.pad;
  const std::int64_t IH = g.in_h, IW = g.in_w, OH = g.out_h, OW = g.out_w;
  // The count of output columns ow >= 0 with ow·s < v: tap kw's input column
  // ow·s − pad + kw is in the image for ow in
  // [cols_below(pad − kw), cols_below(IW + pad − kw)).
  const auto cols_below = [s](std::int64_t v) { return v > 0 ? (v + s - 1) / s : 0; };
  std::uint64_t saturations = 0;
  Acc acc[kRow];
  for (std::int64_t c = c_lo; c < c_hi; ++c) {
    const auto* plane = in + ((b * g.in_c + c) * IH) * IW;
    const auto* wc = w + c * k * k;
    auto* oplane = out + ((b * g.out_c + c) * OH) * OW;
    const Acc init = p.init(c);
    const auto epilogue = p.channel(c);
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      const std::int64_t ih0 = oh * s - pad;  // the input row of tap kh = 0
      const std::int64_t kh_lo = std::max<std::int64_t>(0, -ih0), kh_hi = std::min(k, IH - ih0);
      for (std::int64_t j0 = 0; j0 < OW; j0 += kRow) {
        const std::int64_t jn = std::min(kRow, OW - j0);
        for (std::int64_t j = 0; j < jn; ++j) acc[j] = init;
        for (std::int64_t kh = kh_lo; kh < kh_hi; ++kh) {
          const auto* row = plane + (ih0 + kh) * IW;
          for (std::int64_t kw = 0; kw < k; ++kw) {
            // This block's columns [lo, hi) whose tap (kh, kw) is in the image.
            const std::int64_t lo = std::max(cols_below(pad - kw), j0) - j0;
            const std::int64_t hi = std::min(cols_below(IW + pad - kw), j0 + jn) - j0;
            if (lo >= hi) continue;
            const Acc wv = static_cast<Acc>(wc[kh * k + kw]);
            const auto* x = row + (j0 + lo) * s - pad + kw;
            Acc* a = acc + lo;
            const std::int64_t n = hi - lo;
            if (s == 1) {
              for (std::int64_t j = 0; j < n; ++j) a[j] += static_cast<Acc>(x[j]) * wv;
            } else if (s == 2) {
              for (std::int64_t j = 0; j < n; ++j) a[j] += static_cast<Acc>(x[2 * j]) * wv;
            } else {
              for (std::int64_t j = 0; j < n; ++j) a[j] += static_cast<Acc>(x[j * s]) * wv;
            }
          }
        }
        epilogue.row(acc, oplane + oh * OW + j0, jn, saturations);
      }
    }
  }
  return saturations;
}

/// Max or average pooling of planes [plane_lo, plane_hi) (lane x channel)
/// over g's kernel, stride and pad. A window takes the max or the sum of its
/// in-image taps in row-major order, in P::PoolAcc (double for f32, exact
/// int32 for int8), and leaves through p.window(taps): the max as one tap,
/// the sum averaged over the taps it has. GlobalAvgPool is one window as
/// large as the plane.
template <typename P> [[gnu::noinline]]
std::uint64_t pool(const typename P::Elem* in, typename P::Elem* out, const Conv2dGeometry& g,
                   bool is_max, std::int64_t plane_lo, std::int64_t plane_hi, const P& p) {
  using Acc = typename P::PoolAcc;
  const std::int64_t k = g.kernel, IH = g.in_h, IW = g.in_w, OH = g.out_h, OW = g.out_w;
  std::uint64_t saturations = 0;
  for (std::int64_t bc = plane_lo; bc < plane_hi; ++bc) {
    const auto* plane = in + bc * IH * IW;
    auto* oplane = out + bc * OH * OW;
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      for (std::int64_t ow = 0; ow < OW; ++ow) {
        Acc acc = is_max ? P::kMaxInit : Acc{0};
        std::int64_t count = 0;
        const std::int64_t iw0 = ow * g.stride - g.pad;  // the in-image taps of a row
        const std::int64_t kw_lo = std::max<std::int64_t>(0, -iw0), kw_hi = std::min(k, IW - iw0);
        for (std::int64_t kh = 0; kh < k; ++kh) {
          const std::int64_t ih = oh * g.stride - g.pad + kh;
          if (ih < 0 || ih >= IH) continue;
          for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
            const Acc v = plane[ih * IW + iw0 + kw];
            acc = is_max ? std::max(acc, v) : acc + v;
            ++count;
          }
        }
        oplane[oh * OW + ow] = p.window(is_max ? 1 : count)(acc, saturations);
      }
    }
  }
  return saturations;
}

}  // namespace vedliot::runtime_kernels
