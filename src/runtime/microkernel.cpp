#include "runtime/microkernel.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "runtime/kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define VEDLIOT_HAVE_X86 1
#define VEDLIOT_TARGET_AVX2 __attribute__((target("avx2,fma")))
#endif

#if defined(__ARM_NEON)
#include <arm_neon.h>
#define VEDLIOT_HAVE_NEON 1
#endif

namespace vedliot::runtime_kernels {

namespace {

// Tile shapes per level. f32 AVX2 is the classic 6x16: 12 ymm accumulators
// + 2 B vectors + 1 broadcast leave one register spare. int8 AVX2 is 4x16:
// 8 ymm int32 accumulators fed by madd_epi16 k-pairs. NEON f32 is 4x8 in
// q registers.
constexpr MicrokernelTile kAvx2F32{6, 16};
constexpr MicrokernelTile kAvx2S8{4, 16};
constexpr MicrokernelTile kNeonF32{4, 8};

/// Store the valid region of one accumulator tile through the policy's
/// epilogue — shared across levels and with the scalar kernels, so SIMD and
/// portable epilogues are the same math on every lane. Returns the int8
/// saturation count (0 for f32).
template <std::int64_t NR, typename P>
std::uint64_t store_tile(const typename P::Acc* tile, typename P::Elem* c, std::int64_t ldc,
                         bool col_major, std::int64_t m0, std::int64_t j0, std::int64_t mv,
                         std::int64_t jv, const P& p) {
  std::uint64_t saturations = 0;
  for (std::int64_t r = 0; r < mv; ++r) {
    const auto epilogue = p.channel(m0 + r);
    for (std::int64_t j = 0; j < jv; ++j) {
      const typename P::Elem v = epilogue(tile[r * NR + j], saturations);
      if (col_major) {
        c[(j0 + j) * ldc + (m0 + r)] = v;
      } else {
        c[(m0 + r) * ldc + (j0 + j)] = v;
      }
    }
  }
  return saturations;
}

#if defined(VEDLIOT_HAVE_X86)

VEDLIOT_TARGET_AVX2 std::uint64_t gemm_f32_avx2(const float* pa, const float* pb, float* c,
                                                std::int64_t m, std::int64_t n, std::int64_t k,
                                                std::int64_t ldc, bool col_major_store,
                                                std::int64_t panel_lo, std::int64_t panel_hi,
                                                const F32Policy& policy) {
  constexpr std::int64_t MR = 6, NR = 16;
  const std::int64_t n_panels = panel_count(n, NR);
  for (std::int64_t p = panel_lo; p < panel_hi; ++p) {
    const std::int64_t m0 = p * MR;
    const std::int64_t mv = std::min<std::int64_t>(MR, m - m0);
    const float* pa_panel = pa + p * MR * k;
    for (std::int64_t q = 0; q < n_panels; ++q) {
      const std::int64_t j0 = q * NR;
      const std::int64_t jv = std::min<std::int64_t>(NR, n - j0);
      const float* pb_panel = pb + q * NR * k;

      // Accumulator tile starts at the bias (zero for padded rows), then
      // adds the K products in ascending k — the scalar reference order.
      __m256 acc[MR][2];
      for (std::int64_t r = 0; r < MR; ++r) {
        const float init = r < mv ? policy.init(m0 + r) : 0.0f;
        acc[r][0] = _mm256_set1_ps(init);
        acc[r][1] = _mm256_set1_ps(init);
      }
      for (std::int64_t kp = 0; kp < k; ++kp) {
        const __m256 b0 = _mm256_loadu_ps(pb_panel + kp * NR);
        const __m256 b1 = _mm256_loadu_ps(pb_panel + kp * NR + 8);
        const float* arow = pa_panel + kp * MR;
        for (std::int64_t r = 0; r < MR; ++r) {
          const __m256 av = _mm256_broadcast_ss(arow + r);
          acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
          acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
        }
      }
      alignas(32) float tile[MR * NR];
      for (std::int64_t r = 0; r < MR; ++r) {
        _mm256_store_ps(tile + r * NR, acc[r][0]);
        _mm256_store_ps(tile + r * NR + 8, acc[r][1]);
      }
      store_tile<NR>(tile, c, ldc, col_major_store, m0, j0, mv, jv, policy);
    }
  }
  return 0;
}

VEDLIOT_TARGET_AVX2 std::uint64_t gemm_s8_avx2(const std::int32_t* pa, const std::int8_t* pb,
                                               std::int8_t* c, std::int64_t m, std::int64_t n,
                                               std::int64_t k, std::int64_t ldc,
                                               bool col_major_store, std::int64_t panel_lo,
                                               std::int64_t panel_hi, const S8Policy& policy) {
  constexpr std::int64_t MR = 4, NR = 16;
  const std::int64_t n_panels = panel_count(n, NR);
  const std::int64_t k_pairs = (k + 1) / 2;
  std::uint64_t saturations = 0;
  for (std::int64_t p = panel_lo; p < panel_hi; ++p) {
    const std::int64_t m0 = p * MR;
    const std::int64_t mv = std::min<std::int64_t>(MR, m - m0);
    const std::int32_t* pa_panel = pa + p * MR * k_pairs;
    for (std::int64_t q = 0; q < n_panels; ++q) {
      const std::int64_t j0 = q * NR;
      const std::int64_t jv = std::min<std::int64_t>(NR, n - j0);
      const std::int8_t* pb_panel = pb + q * NR * 2 * k_pairs;

      __m256i acc[MR][2];
      for (std::int64_t r = 0; r < MR; ++r) {
        const std::int32_t init = r < mv ? policy.init(m0 + r) : 0;
        acc[r][0] = _mm256_set1_epi32(init);
        acc[r][1] = _mm256_set1_epi32(init);
      }
      // madd_epi16 on sign-extended bytes: each int32 lane j gains
      // a[2kp] * b[2kp][j] + a[2kp+1] * b[2kp+1][j] — two exact k steps.
      for (std::int64_t kp = 0; kp < k_pairs; ++kp) {
        const __m256i braw =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb_panel + kp * 32));
        const __m256i blo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(braw));
        const __m256i bhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(braw, 1));
        const std::int32_t* arow = pa_panel + kp * MR;
        for (std::int64_t r = 0; r < MR; ++r) {
          const __m256i av = _mm256_set1_epi32(arow[r]);
          acc[r][0] = _mm256_add_epi32(acc[r][0], _mm256_madd_epi16(av, blo));
          acc[r][1] = _mm256_add_epi32(acc[r][1], _mm256_madd_epi16(av, bhi));
        }
      }
      alignas(32) std::int32_t tile[MR * NR];
      for (std::int64_t r = 0; r < MR; ++r) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(tile + r * NR), acc[r][0]);
        _mm256_store_si256(reinterpret_cast<__m256i*>(tile + r * NR + 8), acc[r][1]);
      }
      saturations += store_tile<NR>(tile, c, ldc, col_major_store, m0, j0, mv, jv, policy);
    }
  }
  return saturations;
}

#endif  // VEDLIOT_HAVE_X86

#if defined(VEDLIOT_HAVE_NEON)

std::uint64_t gemm_f32_neon(const float* pa, const float* pb, float* c, std::int64_t m,
                            std::int64_t n, std::int64_t k, std::int64_t ldc, bool col_major_store,
                            std::int64_t panel_lo, std::int64_t panel_hi,
                            const F32Policy& policy) {
  constexpr std::int64_t MR = 4, NR = 8;
  const std::int64_t n_panels = panel_count(n, NR);
  for (std::int64_t p = panel_lo; p < panel_hi; ++p) {
    const std::int64_t m0 = p * MR;
    const std::int64_t mv = std::min<std::int64_t>(MR, m - m0);
    const float* pa_panel = pa + p * MR * k;
    for (std::int64_t q = 0; q < n_panels; ++q) {
      const std::int64_t j0 = q * NR;
      const std::int64_t jv = std::min<std::int64_t>(NR, n - j0);
      const float* pb_panel = pb + q * NR * k;
      float32x4_t acc[MR][2];
      for (std::int64_t r = 0; r < MR; ++r) {
        const float init = r < mv ? policy.init(m0 + r) : 0.0f;
        acc[r][0] = vdupq_n_f32(init);
        acc[r][1] = vdupq_n_f32(init);
      }
      for (std::int64_t kp = 0; kp < k; ++kp) {
        const float32x4_t b0 = vld1q_f32(pb_panel + kp * NR);
        const float32x4_t b1 = vld1q_f32(pb_panel + kp * NR + 4);
        const float* arow = pa_panel + kp * MR;
        for (std::int64_t r = 0; r < MR; ++r) {
          const float32x4_t av = vdupq_n_f32(arow[r]);
          acc[r][0] = vfmaq_f32(acc[r][0], av, b0);
          acc[r][1] = vfmaq_f32(acc[r][1], av, b1);
        }
      }
      float tile[MR * NR];
      for (std::int64_t r = 0; r < MR; ++r) {
        vst1q_f32(tile + r * NR, acc[r][0]);
        vst1q_f32(tile + r * NR + 4, acc[r][1]);
      }
      store_tile<NR>(tile, c, ldc, col_major_store, m0, j0, mv, jv, policy);
    }
  }
  return 0;
}

#endif  // VEDLIOT_HAVE_NEON

}  // namespace

std::size_t packed_a_f32_elems(std::int64_t m, std::int64_t k, const MicrokernelTile& t) {
  return static_cast<std::size_t>(panel_count(m, t.mr) * t.mr * k);
}

std::size_t packed_b_f32_elems(std::int64_t k, std::int64_t n, const MicrokernelTile& t) {
  return static_cast<std::size_t>(panel_count(n, t.nr) * t.nr * k);
}

std::size_t packed_a_s8_words(std::int64_t m, std::int64_t k, const MicrokernelTile& t) {
  return static_cast<std::size_t>(panel_count(m, t.mr) * t.mr * ((k + 1) / 2));
}

std::size_t packed_b_s8_bytes(std::int64_t k, std::int64_t n, const MicrokernelTile& t) {
  return static_cast<std::size_t>(panel_count(n, t.nr) * t.nr * 2 * ((k + 1) / 2));
}

void pack_a_f32(const float* a, std::int64_t m, std::int64_t k, const MicrokernelTile& t,
                float* packed) {
  const std::int64_t mr = t.mr;
  const std::int64_t m_panels = panel_count(m, mr);
  for (std::int64_t p = 0; p < m_panels; ++p) {
    float* dst = packed + p * mr * k;
    for (std::int64_t kp = 0; kp < k; ++kp) {
      for (std::int64_t r = 0; r < mr; ++r) {
        const std::int64_t row = p * mr + r;
        dst[kp * mr + r] = row < m ? a[row * k + kp] : 0.0f;
      }
    }
  }
}

void pack_b_f32(const float* b, std::int64_t k, std::int64_t n, const MicrokernelTile& t,
                std::int64_t panel_lo, std::int64_t panel_hi, float* packed) {
  const std::int64_t nr = t.nr;
  for (std::int64_t q = panel_lo; q < panel_hi; ++q) {
    float* dst = packed + q * nr * k;
    const std::int64_t j0 = q * nr;
    const std::int64_t jv = std::min<std::int64_t>(nr, n - j0);
    for (std::int64_t kp = 0; kp < k; ++kp) {
      const float* src = b + kp * n + j0;
      float* row = dst + kp * nr;
      std::memcpy(row, src, static_cast<std::size_t>(jv) * sizeof(float));
      for (std::int64_t j = jv; j < nr; ++j) row[j] = 0.0f;
    }
  }
}

void pack_a_s8(const std::int8_t* a, std::int64_t m, std::int64_t k, const MicrokernelTile& t,
               std::int32_t* packed) {
  const std::int64_t mr = t.mr;
  const std::int64_t m_panels = panel_count(m, mr);
  const std::int64_t k_pairs = (k + 1) / 2;
  for (std::int64_t p = 0; p < m_panels; ++p) {
    std::int32_t* dst = packed + p * mr * k_pairs;
    for (std::int64_t kp = 0; kp < k_pairs; ++kp) {
      for (std::int64_t r = 0; r < mr; ++r) {
        const std::int64_t row = p * mr + r;
        std::int16_t a0 = 0, a1 = 0;
        if (row < m) {
          a0 = a[row * k + 2 * kp];
          if (2 * kp + 1 < k) a1 = a[row * k + 2 * kp + 1];
        }
        const auto w = static_cast<std::uint32_t>(static_cast<std::uint16_t>(a0)) |
                       (static_cast<std::uint32_t>(static_cast<std::uint16_t>(a1)) << 16);
        dst[kp * mr + r] = static_cast<std::int32_t>(w);
      }
    }
  }
}

void pack_b_s8(const std::int8_t* b, std::int64_t k, std::int64_t n, const MicrokernelTile& t,
               std::int64_t panel_lo, std::int64_t panel_hi, std::int8_t* packed) {
  const std::int64_t nr = t.nr;
  const std::int64_t k_pairs = (k + 1) / 2;
  for (std::int64_t q = panel_lo; q < panel_hi; ++q) {
    std::int8_t* dst = packed + q * nr * 2 * k_pairs;
    const std::int64_t j0 = q * nr;
    const std::int64_t jv = std::min<std::int64_t>(nr, n - j0);
    for (std::int64_t kp = 0; kp < k_pairs; ++kp) {
      const std::int8_t* row0 = b + (2 * kp) * n + j0;
      const std::int8_t* row1 = 2 * kp + 1 < k ? b + (2 * kp + 1) * n + j0 : nullptr;
      std::int8_t* out = dst + kp * nr * 2;
      for (std::int64_t j = 0; j < nr; ++j) {
        out[2 * j] = j < jv ? row0[j] : std::int8_t{0};
        out[2 * j + 1] = (j < jv && row1 != nullptr) ? row1[j] : std::int8_t{0};
      }
    }
  }
}

const GemmMicrokernels* gemm_microkernels(util::SimdLevel resolved) {
#if defined(VEDLIOT_HAVE_X86)
  static const GemmMicrokernels avx2{util::SimdLevel::kAvx2, kAvx2F32, kAvx2S8, &gemm_f32_avx2,
                                     &gemm_s8_avx2};
  if (resolved == util::SimdLevel::kAvx2 && util::simd_supported(util::SimdLevel::kAvx2)) {
    return &avx2;
  }
#endif
#if defined(VEDLIOT_HAVE_NEON)
  static const GemmMicrokernels neon{util::SimdLevel::kNeon, kNeonF32, MicrokernelTile{},
                                     &gemm_f32_neon, nullptr};
  if (resolved == util::SimdLevel::kNeon) return &neon;
#endif
  (void)resolved;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Peak probes: time a register-resident multiply-add chain long enough to
// amortize the clock, and report the achieved rate as the compute roof.
// The probe uses the same instruction the microkernel's inner loop leans on
// (FMA / madd_epi16), so "fraction of roofline" compares like with like.

namespace {

#if defined(VEDLIOT_HAVE_X86)

VEDLIOT_TARGET_AVX2 double probe_f32_avx2(std::int64_t iters) {
  // 12 independent FMA chains — the same ILP shape as the 6x16 microkernel.
  __m256 acc[12];
  for (int i = 0; i < 12; ++i) acc[i] = _mm256_set1_ps(0.5f + 0.01f * static_cast<float>(i));
  const __m256 a = _mm256_set1_ps(0.999999f);
  const __m256 b = _mm256_set1_ps(1e-7f);
  for (std::int64_t it = 0; it < iters; ++it) {
    for (int i = 0; i < 12; ++i) acc[i] = _mm256_fmadd_ps(acc[i], a, b);
  }
  alignas(32) float sink[8];
  __m256 sum = acc[0];
  for (int i = 1; i < 12; ++i) sum = _mm256_add_ps(sum, acc[i]);
  _mm256_store_ps(sink, sum);
  return static_cast<double>(sink[0]);  // data dependence defeats DCE
}

VEDLIOT_TARGET_AVX2 double probe_s8_avx2(std::int64_t iters) {
  __m256i acc[8];
  for (int i = 0; i < 8; ++i) acc[i] = _mm256_set1_epi32(i);
  const __m256i a = _mm256_set1_epi16(3);
  const __m256i b = _mm256_set1_epi16(5);
  for (std::int64_t it = 0; it < iters; ++it) {
    for (int i = 0; i < 8; ++i) acc[i] = _mm256_add_epi32(acc[i], _mm256_madd_epi16(a, b));
  }
  alignas(32) std::int32_t sink[8];
  __m256i sum = acc[0];
  for (int i = 1; i < 8; ++i) sum = _mm256_add_epi32(sum, acc[i]);
  _mm256_store_si256(reinterpret_cast<__m256i*>(sink), sum);
  return static_cast<double>(sink[0]);
}

#endif  // VEDLIOT_HAVE_X86

double probe_f32_portable(std::int64_t iters) {
  // 32 independent chains: enough to cover FMA latency even after the
  // compiler auto-vectorizes the inner loop (which is honest — the portable
  // kernels get the same treatment), so this measures throughput, not the
  // latency of a single dependent chain.
  float acc[32];
  for (int i = 0; i < 32; ++i) acc[i] = 0.5f + 0.01f * static_cast<float>(i);
  for (std::int64_t it = 0; it < iters; ++it) {
    for (int i = 0; i < 32; ++i) acc[i] = acc[i] * 0.999999f + 1e-7f;
  }
  double sum = 0;
  for (int i = 0; i < 32; ++i) sum += static_cast<double>(acc[i]);
  return sum;
}

double probe_s8_portable(std::int64_t iters) {
  // Self-dependent multiply-add chains (unsigned so wraparound is defined);
  // a loop-invariant increment would be constant-folded away entirely.
  std::uint32_t acc[32];
  for (int i = 0; i < 32; ++i) acc[i] = static_cast<std::uint32_t>(i) + 1;
  for (std::int64_t it = 0; it < iters; ++it) {
    for (int i = 0; i < 32; ++i) acc[i] = acc[i] * 3u + 7u;
  }
  std::uint64_t sum = 0;
  for (int i = 0; i < 32; ++i) sum += acc[i];
  return static_cast<double>(sum);
}

/// Run \p fn with growing iteration counts until it spans \p min_seconds;
/// returns (iterations, elapsed seconds) of the final timed run.
template <typename Fn>
std::pair<std::int64_t, double> calibrate(Fn fn, double min_seconds, volatile double* sink) {
  std::int64_t iters = 1 << 16;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    *sink = fn(iters);
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (s >= min_seconds || iters > (std::int64_t{1} << 40)) return {iters, s};
    iters *= 2;
  }
}

}  // namespace

double peak_probe_f32(util::SimdLevel resolved, double min_seconds) {
  volatile double sink = 0;
#if defined(VEDLIOT_HAVE_X86)
  if (resolved == util::SimdLevel::kAvx2 && util::simd_supported(util::SimdLevel::kAvx2)) {
    const auto [iters, s] = calibrate(&probe_f32_avx2, min_seconds, &sink);
    // 12 chains x 8 lanes x 2 flops per FMA per iteration.
    return static_cast<double>(iters) * 12.0 * 8.0 * 2.0 / s / 1e9;
  }
#endif
  (void)resolved;
  // 32 chains x 2 flops per multiply-add per iteration.
  const auto [iters, s] = calibrate(&probe_f32_portable, min_seconds, &sink);
  return static_cast<double>(iters) * 32.0 * 2.0 / s / 1e9;
}

double peak_probe_s8(util::SimdLevel resolved, double min_seconds) {
  volatile double sink = 0;
#if defined(VEDLIOT_HAVE_X86)
  if (resolved == util::SimdLevel::kAvx2 && util::simd_supported(util::SimdLevel::kAvx2)) {
    const auto [iters, s] = calibrate(&probe_s8_avx2, min_seconds, &sink);
    // 8 chains x 16 MACs per madd+add x 2 ops per MAC.
    return static_cast<double>(iters) * 8.0 * 16.0 * 2.0 / s / 1e9;
  }
#endif
  (void)resolved;
  // 32 chains x 2 ops per multiply-add per iteration.
  const auto [iters, s] = calibrate(&probe_s8_portable, min_seconds, &sink);
  return static_cast<double>(iters) * 32.0 * 2.0 / s / 1e9;
}

}  // namespace vedliot::runtime_kernels
