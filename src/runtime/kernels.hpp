#pragma once
/// \file kernels.hpp
/// \brief Compute kernels of the execution engine: im2col packing and
/// cache-blocked GEMM for Conv2D/Dense, float and true-integer INT8 paths.
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

#include <cmath>
#include <cstdint>

#include "graph/op.hpp"

namespace vedliot::runtime_kernels {

/// Scalar activation of the f32 epilogues and activation ops. kIdentity passes
/// through; alpha feeds LeakyRelu.
float apply_activation(float x, OpKind kind, double alpha);

/// Round to nearest and saturate to int8, counting saturations (values
/// outside [-128, 127] — information lost). Weight and input quantization
/// use it as is.
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

/// The one requantization every scalar int8 epilogue shares: requant_sat,
/// then the fused-activation clamp window [q_lo, q_hi] (semantics, not
/// counted as saturation).
inline std::int8_t requant_clamped(double v, std::int32_t q_lo, std::int32_t q_hi,
                                   std::uint64_t& saturations) {
  std::int8_t q = requant_sat(v, saturations);
  if (q < q_lo) q = static_cast<std::int8_t>(q_lo);
  if (q > q_hi) q = static_cast<std::int8_t>(q_hi);
  return q;
}

/// Conv2D loop geometry, shared by the float and INT8 paths.
struct Conv2dGeometry {
  std::int64_t batch = 1;
  std::int64_t in_c = 0, in_h = 0, in_w = 0;
  std::int64_t out_c = 0, out_h = 0, out_w = 0;
  std::int64_t kernel = 1, stride = 1, pad = 0, groups = 1;

  std::int64_t icg() const { return in_c / groups; }   ///< input channels / group
  std::int64_t ocg() const { return out_c / groups; }  ///< output channels / group
  std::int64_t patch() const { return icg() * kernel * kernel; }  ///< GEMM K
  std::int64_t cols() const { return out_h * out_w; }             ///< GEMM N
  bool depthwise() const { return groups == in_c && ocg() == 1; }
  /// Multiply-accumulates of the full convolution (all batches).
  double macs() const;
};

/// Pack one (batch, group) slice of an NCHW input into a row-major
/// [patch() x cols()] column matrix; out-of-image taps become zero.
/// Rows [row_lo, row_hi) only, so packing itself can be partitioned.
void im2col_f32(const float* in, const Conv2dGeometry& g, std::int64_t b, std::int64_t group,
                std::int64_t row_lo, std::int64_t row_hi, float* col);
void im2col_s8(const std::int8_t* in, const Conv2dGeometry& g, std::int64_t b,
               std::int64_t group, std::int64_t row_lo, std::int64_t row_hi, std::int8_t* col);

/// Row range [m_lo, m_hi) of C = A·B (+bias) with fused activation:
/// A is [M x K] row-major (conv weights / dense weights), B is [K x N]
/// row-major (the im2col matrix / input), C is [M x N] row-major.
/// Float accumulation in fixed k-order; bias may be null.
void gemm_rows_f32(const float* a, const float* b, float* c, std::int64_t m_lo,
                   std::int64_t m_hi, std::int64_t n, std::int64_t k, const float* bias,
                   OpKind act, double alpha);

/// Row range [u_lo, u_hi) of the batched dense layer y = x·Wᵀ (+bias) with
/// fused activation: w is [units x features] row-major, xt is the transposed
/// activation matrix [features x batch] (a [1 x features] input is its own
/// transpose, so batch == 1 passes the input unchanged), y is
/// [batch x units] row-major. Each weight row is read once and serves every
/// lane — the batched path's throughput edge over per-request dispatch —
/// while each lane keeps the fixed f = 0..features-1 accumulation order, so
/// a lane of a batch-8 run is bitwise identical to the same sample run alone.
void dense_rows_f32(const float* w, const float* xt, float* y, std::int64_t u_lo,
                    std::int64_t u_hi, std::int64_t batch, std::int64_t features,
                    std::int64_t units, const float* bias, OpKind act, double alpha);

/// INT8 GEMM row range with int32 accumulation and fused requantization:
/// c[m][j] = clamp(round(acc * mult[m]), q_lo, q_hi) where acc starts at
/// bias[m]. Returns the number of requantization saturations (|q| > 127
/// before the activation clamp), so parallel callers can sum per-chunk
/// counts into a deterministic total.
std::uint64_t gemm_rows_s8(const std::int8_t* a, const std::int8_t* b, std::int8_t* c,
                           std::int64_t m_lo, std::int64_t m_hi, std::int64_t n,
                           std::int64_t k, const std::int32_t* bias, const double* mult,
                           std::int32_t q_lo, std::int32_t q_hi);

/// Direct depthwise convolution (groups == channels) for channel range
/// [c_lo, c_hi) of batch b: im2col degenerates to a k*k dot per pixel, so
/// packing overhead is pure loss — keep it direct. Float accumulation in
/// fixed tap order; bias may be null.
void depthwise_f32(const float* in, const float* w, const float* bias, float* out,
                   const Conv2dGeometry& g, std::int64_t b, std::int64_t c_lo,
                   std::int64_t c_hi, OpKind act, double alpha);

/// INT8 direct depthwise for channel range [c_lo, c_hi) of batch b, with the
/// same requant epilogue as gemm_rows_s8. Returns the saturation count.
std::uint64_t depthwise_s8(const std::int8_t* in, const std::int8_t* w, const std::int32_t* bias,
                           std::int8_t* out, const Conv2dGeometry& g, std::int64_t b,
                           std::int64_t c_lo, std::int64_t c_hi, const double* mult,
                           std::int32_t q_lo, std::int32_t q_hi);

}  // namespace vedliot::runtime_kernels
