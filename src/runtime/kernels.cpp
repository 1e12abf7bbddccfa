#include "runtime/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace vedliot::runtime_kernels {

float apply_activation(float x, OpKind kind, double alpha) {
  switch (kind) {
    case OpKind::kRelu: return x > 0.0f ? x : 0.0f;
    case OpKind::kRelu6: return std::clamp(x, 0.0f, 6.0f);
    case OpKind::kLeakyRelu: return x > 0.0f ? x : static_cast<float>(alpha) * x;
    case OpKind::kSigmoid: return 1.0f / (1.0f + std::exp(-x));
    case OpKind::kHSigmoid: return std::clamp(x / 6.0f + 0.5f, 0.0f, 1.0f);
    case OpKind::kHSwish: return x * std::clamp(x / 6.0f + 0.5f, 0.0f, 1.0f);
    case OpKind::kTanh: return std::tanh(x);
    case OpKind::kMish: {
      const float sp = std::log1p(std::exp(x));  // softplus
      return x * std::tanh(sp);
    }
    default: return x;
  }
}

double Conv2dGeometry::macs() const {
  return static_cast<double>(batch) * static_cast<double>(out_c) *
         static_cast<double>(cols()) * static_cast<double>(patch());
}

namespace {

/// Shared im2col: one packed row per (ic, kh, kw) patch tap, one column per
/// output pixel. Interior kh rows are contiguous memcpy-able runs when
/// stride == 1; the generic path below is simple strided loads with zero
/// fill at the borders (correct for every stride/pad combination).
template <typename T>
void im2col_rows(const T* in, const Conv2dGeometry& g, std::int64_t b, std::int64_t group,
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

}  // namespace

void im2col_f32(const float* in, const Conv2dGeometry& g, std::int64_t b, std::int64_t group,
                std::int64_t row_lo, std::int64_t row_hi, float* col) {
  im2col_rows(in, g, b, group, row_lo, row_hi, col);
}

void im2col_s8(const std::int8_t* in, const Conv2dGeometry& g, std::int64_t b,
               std::int64_t group, std::int64_t row_lo, std::int64_t row_hi, std::int8_t* col) {
  im2col_rows(in, g, b, group, row_lo, row_hi, col);
}

void gemm_rows_f32(const float* a, const float* b, float* c, std::int64_t m_lo,
                   std::int64_t m_hi, std::int64_t n, std::int64_t k, const float* bias,
                   OpKind act, double alpha) {
  // Column blocking keeps a [K x kNB] panel of B plus one accumulator row
  // hot; the kp loop is an axpy over a contiguous row of B, which the
  // compiler vectorizes. k-order is 0..K-1 for every element regardless of
  // blocking, so the result is independent of the (m) partition.
  constexpr std::int64_t kNB = 256;
  for (std::int64_t j0 = 0; j0 < n; j0 += kNB) {
    const std::int64_t jn = std::min(kNB, n - j0);
    for (std::int64_t m = m_lo; m < m_hi; ++m) {
      float acc[kNB];
      const float init = bias != nullptr ? bias[m] : 0.0f;
      for (std::int64_t j = 0; j < jn; ++j) acc[j] = init;
      const float* arow = a + m * k;
      for (std::int64_t kp = 0; kp < k; ++kp) {
        const float av = arow[kp];
        if (av == 0.0f) continue;  // pruned weights are exact zeros
        const float* brow = b + kp * n + j0;
        for (std::int64_t j = 0; j < jn; ++j) acc[j] += av * brow[j];
      }
      float* crow = c + m * n + j0;
      if (act == OpKind::kIdentity) {
        for (std::int64_t j = 0; j < jn; ++j) crow[j] = acc[j];
      } else {
        for (std::int64_t j = 0; j < jn; ++j) crow[j] = apply_activation(acc[j], act, alpha);
      }
    }
  }
}

void dense_rows_f32(const float* w, const float* xt, float* y, std::int64_t u_lo,
                    std::int64_t u_hi, std::int64_t batch, std::int64_t features,
                    std::int64_t units, const float* bias, OpKind act, double alpha) {
  // Lane blocking bounds the accumulator tile; the inner j loop carries
  // independent per-lane sums, so it vectorizes without reassociating any
  // single lane's f-order. A per-sample dot product is a serial dependency
  // chain the compiler cannot reorder — amortizing the weight row across
  // lanes is where the batch >= 2 speedup comes from. No zero-skip here:
  // dense weights are not pruned, and the epilogue must match the
  // historical per-sample loop bit for bit.
  constexpr std::int64_t kJB = 64;
  for (std::int64_t j0 = 0; j0 < batch; j0 += kJB) {
    const std::int64_t jn = std::min(kJB, batch - j0);
    for (std::int64_t u = u_lo; u < u_hi; ++u) {
      float acc[kJB];
      const float init = bias != nullptr ? bias[u] : 0.0f;
      for (std::int64_t j = 0; j < jn; ++j) acc[j] = init;
      const float* wrow = w + u * features;
      for (std::int64_t f = 0; f < features; ++f) {
        const float wv = wrow[f];
        const float* xrow = xt + f * batch + j0;
        for (std::int64_t j = 0; j < jn; ++j) acc[j] += wv * xrow[j];
      }
      if (act == OpKind::kIdentity) {
        for (std::int64_t j = 0; j < jn; ++j) y[(j0 + j) * units + u] = acc[j];
      } else {
        for (std::int64_t j = 0; j < jn; ++j) {
          y[(j0 + j) * units + u] = apply_activation(acc[j], act, alpha);
        }
      }
    }
  }
}

std::uint64_t gemm_rows_s8(const std::int8_t* a, const std::int8_t* b, std::int8_t* c,
                           std::int64_t m_lo, std::int64_t m_hi, std::int64_t n,
                           std::int64_t k, const std::int32_t* bias, const double* mult,
                           std::int32_t q_lo, std::int32_t q_hi) {
  constexpr std::int64_t kNB = 256;
  std::uint64_t saturations = 0;
  for (std::int64_t j0 = 0; j0 < n; j0 += kNB) {
    const std::int64_t jn = std::min(kNB, n - j0);
    for (std::int64_t m = m_lo; m < m_hi; ++m) {
      std::int32_t acc[kNB];
      const std::int32_t init = bias != nullptr ? bias[m] : 0;
      for (std::int64_t j = 0; j < jn; ++j) acc[j] = init;
      const std::int8_t* arow = a + m * k;
      for (std::int64_t kp = 0; kp < k; ++kp) {
        const std::int32_t av = arow[kp];
        if (av == 0) continue;
        const std::int8_t* brow = b + kp * n + j0;
        for (std::int64_t j = 0; j < jn; ++j) acc[j] += av * static_cast<std::int32_t>(brow[j]);
      }
      const double m_mult = mult[m];
      std::int8_t* crow = c + m * n + j0;
      for (std::int64_t j = 0; j < jn; ++j) {
        crow[j] = requant_clamped(static_cast<double>(acc[j]) * m_mult, q_lo, q_hi, saturations);
      }
    }
  }
  return saturations;
}

void depthwise_f32(const float* in, const float* w, const float* bias, float* out,
                   const Conv2dGeometry& g, std::int64_t b, std::int64_t c_lo,
                   std::int64_t c_hi, OpKind act, double alpha) {
  const std::int64_t k = g.kernel, IH = g.in_h, IW = g.in_w, OH = g.out_h, OW = g.out_w;
  for (std::int64_t c = c_lo; c < c_hi; ++c) {
    const float* plane = in + ((b * g.in_c + c) * IH) * IW;
    const float* wc = w + c * k * k;
    float* oplane = out + ((b * g.out_c + c) * OH) * OW;
    const float init = bias != nullptr ? bias[c] : 0.0f;
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      for (std::int64_t ow = 0; ow < OW; ++ow) {
        float acc = init;
        for (std::int64_t kh = 0; kh < k; ++kh) {
          const std::int64_t ih = oh * g.stride - g.pad + kh;
          if (ih < 0 || ih >= IH) continue;
          for (std::int64_t kw = 0; kw < k; ++kw) {
            const std::int64_t iw = ow * g.stride - g.pad + kw;
            if (iw < 0 || iw >= IW) continue;
            acc += plane[ih * IW + iw] * wc[kh * k + kw];
          }
        }
        oplane[oh * OW + ow] = apply_activation(acc, act, alpha);
      }
    }
  }
}

std::uint64_t depthwise_s8(const std::int8_t* in, const std::int8_t* w, const std::int32_t* bias,
                           std::int8_t* out, const Conv2dGeometry& g, std::int64_t b,
                           std::int64_t c_lo, std::int64_t c_hi, const double* mult,
                           std::int32_t q_lo, std::int32_t q_hi) {
  const std::int64_t k = g.kernel, IH = g.in_h, IW = g.in_w, OH = g.out_h, OW = g.out_w;
  std::uint64_t saturations = 0;
  for (std::int64_t c = c_lo; c < c_hi; ++c) {
    const std::int8_t* plane = in + ((b * g.in_c + c) * IH) * IW;
    const std::int8_t* wc = w + c * k * k;
    std::int8_t* oplane = out + ((b * g.out_c + c) * OH) * OW;
    const std::int32_t init = bias != nullptr ? bias[c] : 0;
    const double m_mult = mult[c];
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      for (std::int64_t ow = 0; ow < OW; ++ow) {
        std::int32_t acc = init;
        for (std::int64_t kh = 0; kh < k; ++kh) {
          const std::int64_t ih = oh * g.stride - g.pad + kh;
          if (ih < 0 || ih >= IH) continue;
          for (std::int64_t kw = 0; kw < k; ++kw) {
            const std::int64_t iw = ow * g.stride - g.pad + kw;
            if (iw < 0 || iw >= IW) continue;
            acc += static_cast<std::int32_t>(plane[ih * IW + iw]) *
                   static_cast<std::int32_t>(wc[kh * k + kw]);
          }
        }
        oplane[oh * OW + ow] =
            requant_clamped(static_cast<double>(acc) * m_mult, q_lo, q_hi, saturations);
      }
    }
  }
  return saturations;
}

}  // namespace vedliot::runtime_kernels
