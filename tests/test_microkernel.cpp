// Tests for the SIMD microkernel GEMM layer: edge-tail correctness against
// the scalar reference, the per-level determinism contract (int8 bitwise,
// f32 tight tolerance, parallel-vs-serial bitwise, batch-lane bitwise), the
// transposed orientation (its rule, and bitwise equality with the
// untransposed call under any column-panel split),
// packed-panel lifecycle in the execution plan (steady-state reuse,
// version/tile recompile, OTA-repair self-heal), env-override dispatch, and
// the roofline probes; plus the random-graph corpus, pinned across commits
// by digest and checked within one commit against the threads,
// dispatch-level and batch-lane contracts.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/verifier.hpp"
#include "exec_single.hpp"
#include "graph/zoo.hpp"
#include "hw/roofline.hpp"
#include "opt/fusion.hpp"
#include "opt/quantize.hpp"
#include "random_graph.hpp"
#include "runtime/executor.hpp"
#include "runtime/kernels.hpp"
#include "runtime/microkernel.hpp"
#include "runtime/session.hpp"
#include "safety/model_store.hpp"
#include "safety/scrub.hpp"
#include "util/cpu.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace vedliot {
namespace {

using runtime_kernels::GemmMicrokernels;
using runtime_kernels::MicrokernelTile;
using runtime_kernels::panel_count;
using runtime_kernels::Requant;

/// Set an environment variable for one scope and restore the prior state on
/// exit, so dispatch-override tests cannot leak into other tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

/// The best SIMD table this binary actually has, ignoring env overrides —
/// nullptr on a pure-portable build/host (tests then skip the SIMD half).
const GemmMicrokernels* best_simd_table() {
  for (auto level : {util::SimdLevel::kAvx2, util::SimdLevel::kNeon}) {
    if (util::simd_supported(level)) {
      if (const auto* t = runtime_kernels::gemm_microkernels(level)) return t;
    }
  }
  return nullptr;
}

/// The table the executor will actually dispatch to right now — honors the
/// env overrides, unlike best_simd_table(). Null under a forced-portable run.
const GemmMicrokernels* resolved_table() {
  return runtime_kernels::gemm_microkernels(
      util::resolve_simd_level(util::SimdLevel::kAuto));
}

// Edge-tail grid: values straddling the register tiles (mr ∈ {4, 6},
// nr ∈ {8, 16}) plus degenerate extents.
const std::int64_t kMs[] = {1, 5, 6, 7, 13};
const std::int64_t kNs[] = {1, 15, 16, 17, 33};
const std::int64_t kKs[] = {1, 2, 3, 64, 65};

std::vector<float> rand_f32(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return rng.normal_vector(n);
}

std::vector<std::int8_t> rand_s8(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int8_t> v(n);
  for (auto& x : v) {
    x = static_cast<std::int8_t>(static_cast<std::int32_t>(rng.uniform(-128.0, 128.0)));
  }
  return v;
}

/// Full-range microkernel f32 GEMM over freshly packed operands.
void mk_gemm_f32(const GemmMicrokernels& t, const float* a, const float* b, float* c,
                 std::int64_t m, std::int64_t n, std::int64_t k, const float* bias,
                 OpKind act, double alpha, bool col_major = false, std::int64_t ldc = -1) {
  std::vector<float> pa(runtime_kernels::packed_a_f32_elems(m, k, t.f32));
  std::vector<float> pb(runtime_kernels::packed_b_f32_elems(k, n, t.f32));
  runtime_kernels::pack_a_f32(a, m, k, k, 1, t.f32, pa.data());
  runtime_kernels::pack_b_f32(b, k, n, n, 1, t.f32, 0, panel_count(n, t.f32.nr), pb.data());
  if (ldc < 0) ldc = col_major ? m : n;
  t.gemm_f32(pa.data(), pb.data(), m, n, k, {c, ldc, col_major, false},
             {0, panel_count(m, t.f32.mr), 0, panel_count(n, t.f32.nr)},
             runtime_kernels::F32Policy{bias, act, alpha});
}

/// Full-range microkernel int8 GEMM; returns the saturation count.
std::uint64_t mk_gemm_s8(const GemmMicrokernels& t, const std::int8_t* a,
                         const std::int8_t* b, std::int8_t* c, std::int64_t m,
                         std::int64_t n, std::int64_t k, const std::int32_t* bias,
                         const Requant* rq, std::int32_t q_lo, std::int32_t q_hi,
                         bool col_major = false, std::int64_t ldc = -1) {
  std::vector<std::int32_t> pa(runtime_kernels::packed_a_s8_words(m, k, t.s8));
  std::vector<std::int8_t> pb(runtime_kernels::packed_b_s8_bytes(k, n, t.s8));
  runtime_kernels::pack_a_s8(a, m, k, k, 1, t.s8, pa.data());
  runtime_kernels::pack_b_s8(b, k, n, n, 1, t.s8, 0, panel_count(n, t.s8.nr), pb.data());
  if (ldc < 0) ldc = col_major ? m : n;
  return t.gemm_s8(pa.data(), pb.data(), m, n, k, {c, ldc, col_major, false},
                   {0, panel_count(m, t.s8.mr), 0, panel_count(n, t.s8.nr)},
                   runtime_kernels::S8Policy{bias, rq, q_lo, q_hi});
}

/// The same products as mk_gemm_f32, run transposed: Cᵀ = Bᵀ·Aᵀ over strided
/// packs of \p b (as A rows) and \p a (as B columns), the channel on the
/// tile's columns, stored into C [m x n] row-major through the column-major
/// store. Only column panels [col_lo, col_hi) of Aᵀ run (-1: all of them).
void mk_gemm_f32_t(const GemmMicrokernels& t, const float* a, const float* b, float* c,
                   std::int64_t m, std::int64_t n, std::int64_t k, const float* bias, OpKind act,
                   double alpha, std::int64_t col_lo = 0, std::int64_t col_hi = -1) {
  std::vector<float> pa(runtime_kernels::packed_a_f32_elems(n, k, t.f32));
  std::vector<float> pb(runtime_kernels::packed_b_f32_elems(k, m, t.f32));
  runtime_kernels::pack_a_f32(b, n, k, 1, n, t.f32, pa.data());
  runtime_kernels::pack_b_f32(a, k, m, 1, k, t.f32, 0, panel_count(m, t.f32.nr), pb.data());
  if (col_hi < 0) col_hi = panel_count(m, t.f32.nr);
  t.gemm_f32(pa.data(), pb.data(), n, m, k, {c, n, true, true},
             {0, panel_count(n, t.f32.mr), col_lo, col_hi},
             runtime_kernels::F32Policy{bias, act, alpha});
}

/// mk_gemm_s8's products, run transposed like mk_gemm_f32_t.
std::uint64_t mk_gemm_s8_t(const GemmMicrokernels& t, const std::int8_t* a,
                           const std::int8_t* b, std::int8_t* c, std::int64_t m,
                           std::int64_t n, std::int64_t k, const std::int32_t* bias,
                           const Requant* rq, std::int32_t q_lo, std::int32_t q_hi,
                           std::int64_t col_lo = 0, std::int64_t col_hi = -1) {
  std::vector<std::int32_t> pa(runtime_kernels::packed_a_s8_words(n, k, t.s8));
  std::vector<std::int8_t> pb(runtime_kernels::packed_b_s8_bytes(k, m, t.s8));
  runtime_kernels::pack_a_s8(b, n, k, 1, n, t.s8, pa.data());
  runtime_kernels::pack_b_s8(a, k, m, 1, k, t.s8, 0, panel_count(m, t.s8.nr), pb.data());
  if (col_hi < 0) col_hi = panel_count(m, t.s8.nr);
  return t.gemm_s8(pa.data(), pb.data(), n, m, k, {c, n, true, true},
                   {0, panel_count(n, t.s8.mr), col_lo, col_hi},
                   runtime_kernels::S8Policy{bias, rq, q_lo, q_hi});
}

/// Per-channel int8 epilogue constants for \p m channels, with multipliers
/// chosen so a fair share of outputs saturate.
struct S8Channels {
  std::vector<std::int32_t> bias;
  std::vector<Requant> rq;
};
S8Channels s8_channels(std::int64_t m, std::uint64_t seed) {
  Rng rng(seed);
  S8Channels ch;
  for (std::int64_t r = 0; r < m; ++r) {
    ch.bias.push_back(static_cast<std::int32_t>(rng.uniform(-500.0, 500.0)));
    ch.rq.push_back(Requant::from_real(rng.uniform(0.0005, 0.02)));
  }
  return ch;
}

bool same_f32_bits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// Edge tails vs the scalar reference
// ---------------------------------------------------------------------------

TEST(Microkernel, F32EdgeTailsMatchScalarReference) {
  const auto* t = best_simd_table();
  if (t == nullptr || t->gemm_f32 == nullptr) GTEST_SKIP() << "no SIMD f32 microkernel";
  std::uint64_t seed = 100;
  for (std::int64_t m : kMs) {
    for (std::int64_t n : kNs) {
      for (std::int64_t k : kKs) {
        const auto a = rand_f32(static_cast<std::size_t>(m * k), seed++);
        const auto b = rand_f32(static_cast<std::size_t>(k * n), seed++);
        const auto bias = rand_f32(static_cast<std::size_t>(m), seed++);
        // Exercise the fused-activation epilogue on half the grid.
        const OpKind act = ((m + n + k) % 2 == 0) ? OpKind::kRelu : OpKind::kIdentity;
        std::vector<float> ref(static_cast<std::size_t>(m * n));
        runtime_kernels::gemm_rows(a.data(), b.data(), ref.data(), 0, m, n, k,
                                   runtime_kernels::F32Policy{bias.data(), act, 0.0});
        std::vector<float> got(ref.size(), -777.0f);
        mk_gemm_f32(*t, a.data(), b.data(), got.data(), m, n, k, bias.data(), act, 0.0);
        for (std::size_t i = 0; i < ref.size(); ++i) {
          // FMA contraction changes rounding per product; with |a|,|b| ~ N(0,1)
          // and K <= 65 the divergence stays far below this bound.
          ASSERT_NEAR(got[i], ref[i], 1e-4)
              << "m=" << m << " n=" << n << " k=" << k << " i=" << i;
        }
      }
    }
  }
}

TEST(Microkernel, S8EdgeTailsBitwiseEqualScalarReference) {
  const auto* t = best_simd_table();
  if (t == nullptr || t->gemm_s8 == nullptr) GTEST_SKIP() << "no SIMD int8 microkernel";
  std::uint64_t seed = 500;
  for (std::int64_t m : kMs) {
    for (std::int64_t n : kNs) {
      for (std::int64_t k : kKs) {
        const auto a = rand_s8(static_cast<std::size_t>(m * k), seed++);
        const auto b = rand_s8(static_cast<std::size_t>(k * n), seed++);
        Rng rng(seed++);
        std::vector<std::int32_t> bias(static_cast<std::size_t>(m));
        std::vector<Requant> rq(static_cast<std::size_t>(m));
        for (std::size_t r = 0; r < bias.size(); ++r) {
          bias[r] = static_cast<std::int32_t>(rng.uniform(-500.0, 500.0));
          // Multiplier chosen so a fair share of outputs saturate — the
          // counts must match exactly, not just the clamped bytes.
          rq[r] = Requant::from_real(rng.uniform(0.0005, 0.02));
        }
        const std::int32_t q_lo = ((m + n) % 2 == 0) ? 0 : -128;
        std::vector<std::int8_t> ref(static_cast<std::size_t>(m * n));
        const std::uint64_t sat_ref = runtime_kernels::gemm_rows(
            a.data(), b.data(), ref.data(), 0, m, n, k,
            runtime_kernels::S8Policy{bias.data(), rq.data(), q_lo, 127});
        std::vector<std::int8_t> got(ref.size(), 99);
        const std::uint64_t sat_got = mk_gemm_s8(*t, a.data(), b.data(), got.data(), m, n,
                                                 k, bias.data(), rq.data(), q_lo, 127);
        ASSERT_EQ(sat_got, sat_ref) << "m=" << m << " n=" << n << " k=" << k;
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_EQ(got[i], ref[i]) << "m=" << m << " n=" << n << " k=" << k << " i=" << i;
        }
      }
    }
  }
}

TEST(Microkernel, ColMajorStoreIsBitwiseTransposeOfRowMajor) {
  const auto* t = best_simd_table();
  if (t == nullptr) GTEST_SKIP() << "no SIMD microkernels";
  const std::int64_t m = 7, n = 17, k = 33;
  const auto a = rand_f32(static_cast<std::size_t>(m * k), 1);
  const auto b = rand_f32(static_cast<std::size_t>(k * n), 2);
  std::vector<float> row(static_cast<std::size_t>(m * n)), col(row.size());
  mk_gemm_f32(*t, a.data(), b.data(), row.data(), m, n, k, nullptr, OpKind::kIdentity, 0.0);
  mk_gemm_f32(*t, a.data(), b.data(), col.data(), m, n, k, nullptr, OpKind::kIdentity, 0.0,
              /*col_major=*/true);
  // Same arithmetic, different store address: transposed layouts are bitwise.
  for (std::int64_t r = 0; r < m; ++r) {
    for (std::int64_t j = 0; j < n; ++j) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(row[static_cast<std::size_t>(r * n + j)]),
                std::bit_cast<std::uint32_t>(col[static_cast<std::size_t>(j * m + r)]));
    }
  }

  if (t->gemm_s8 == nullptr) return;
  const auto a8 = rand_s8(static_cast<std::size_t>(m * k), 3);
  const auto b8 = rand_s8(static_cast<std::size_t>(k * n), 4);
  std::vector<std::int32_t> bias(static_cast<std::size_t>(m), 11);
  std::vector<Requant> rq(static_cast<std::size_t>(m), Requant::from_real(0.003));
  std::vector<std::int8_t> row8(static_cast<std::size_t>(m * n)), col8(row8.size());
  const auto s1 = mk_gemm_s8(*t, a8.data(), b8.data(), row8.data(), m, n, k, bias.data(),
                             rq.data(), -128, 127);
  const auto s2 = mk_gemm_s8(*t, a8.data(), b8.data(), col8.data(), m, n, k, bias.data(),
                             rq.data(), -128, 127, /*col_major=*/true);
  EXPECT_EQ(s1, s2);
  for (std::int64_t r = 0; r < m; ++r) {
    for (std::int64_t j = 0; j < n; ++j) {
      ASSERT_EQ(row8[static_cast<std::size_t>(r * n + j)],
                col8[static_cast<std::size_t>(j * m + r)]);
    }
  }
}

TEST(Microkernel, PanelPartitionIsBitwiseInvariant) {
  // The pfor over row panels may split anywhere; every split must produce
  // the same bits as one full-range call (the parallel-vs-serial contract
  // at the microkernel layer).
  const auto* t = best_simd_table();
  if (t == nullptr) GTEST_SKIP() << "no SIMD microkernels";
  const std::int64_t m = 13, n = 33, k = 65;
  const auto a = rand_f32(static_cast<std::size_t>(m * k), 10);
  const auto b = rand_f32(static_cast<std::size_t>(k * n), 11);

  std::vector<float> pa(runtime_kernels::packed_a_f32_elems(m, k, t->f32));
  std::vector<float> pb(runtime_kernels::packed_b_f32_elems(k, n, t->f32));
  runtime_kernels::pack_a_f32(a.data(), m, k, k, 1, t->f32, pa.data());
  runtime_kernels::pack_b_f32(b.data(), k, n, n, 1, t->f32, 0, panel_count(n, t->f32.nr),
                              pb.data());
  const std::int64_t panels = panel_count(m, t->f32.mr);
  const std::int64_t col_panels = panel_count(n, t->f32.nr);
  std::vector<float> whole(static_cast<std::size_t>(m * n));
  t->gemm_f32(pa.data(), pb.data(), m, n, k, {whole.data(), n}, {0, panels, 0, col_panels},
              runtime_kernels::F32Policy{});
  for (std::int64_t split = 1; split < panels; ++split) {
    std::vector<float> parts(whole.size(), -1.0f);
    t->gemm_f32(pa.data(), pb.data(), m, n, k, {parts.data(), n}, {0, split, 0, col_panels},
                runtime_kernels::F32Policy{});
    t->gemm_f32(pa.data(), pb.data(), m, n, k, {parts.data(), n},
                {split, panels, 0, col_panels}, runtime_kernels::F32Policy{});
    for (std::size_t i = 0; i < whole.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(parts[i]),
                std::bit_cast<std::uint32_t>(whole[i]))
          << "split=" << split << " i=" << i;
    }
  }
}

TEST(Microkernel, TransposedOrientationRule) {
  using runtime_kernels::gemm_transposed;
  const MicrokernelTile s8{4, 16}, f32{6, 16};
  EXPECT_TRUE(gemm_transposed(512, 4, s8));    // a stage-4 conv of ResNet-50 img64 (2x2 maps)
  EXPECT_TRUE(gemm_transposed(10, 1, s8));     // a batch-1 classifier
  EXPECT_FALSE(gemm_transposed(256, 16, s8));  // the columns fill the vector width
  EXPECT_TRUE(gemm_transposed(24, 1, f32));
  EXPECT_FALSE(gemm_transposed(10, 8, f32));   // the two grids tie at 12 x 16
  EXPECT_FALSE(gemm_transposed(6, 15, f32));   // transposed pads more: 18 x 16 vs 6 x 16
  // A wide 16-channel layer (MobileNetV3's stem): the area alone would flip
  // it, leaving one weight panel for every thread to share.
  EXPECT_FALSE(gemm_transposed(16, 112 * 112, f32));
  EXPECT_FALSE(gemm_transposed(512, 4, MicrokernelTile{}));  // portable: no tile
}

TEST(Microkernel, TransposedCallBitwiseEqualsUntransposed) {
  // Cᵀ = Bᵀ·Aᵀ over strided packs of the same operands: every element starts
  // at the same bias and takes the same products in ascending k, only the
  // two factors of each product trade sides. So f32 is bitwise equal too,
  // and int8 counts the same saturations.
  const auto* t = best_simd_table();
  if (t == nullptr) GTEST_SKIP() << "no SIMD microkernels";
  std::uint64_t seed = 900;
  for (std::int64_t m : kMs) {
    for (std::int64_t n : kNs) {
      for (std::int64_t k : kKs) {
        const std::string at =
            "m=" + std::to_string(m) + " n=" + std::to_string(n) + " k=" + std::to_string(k);
        const auto a = rand_f32(static_cast<std::size_t>(m * k), seed++);
        const auto b = rand_f32(static_cast<std::size_t>(k * n), seed++);
        const auto bias = rand_f32(static_cast<std::size_t>(m), seed++);
        const OpKind act = ((m + n + k) % 2 == 0) ? OpKind::kRelu : OpKind::kIdentity;
        std::vector<float> ref(static_cast<std::size_t>(m * n)), got(ref.size(), -777.0f);
        mk_gemm_f32(*t, a.data(), b.data(), ref.data(), m, n, k, bias.data(), act, 0.0);
        mk_gemm_f32_t(*t, a.data(), b.data(), got.data(), m, n, k, bias.data(), act, 0.0);
        ASSERT_TRUE(same_f32_bits(got, ref)) << at;

        if (t->gemm_s8 == nullptr) continue;
        const auto a8 = rand_s8(static_cast<std::size_t>(m * k), seed++);
        const auto b8 = rand_s8(static_cast<std::size_t>(k * n), seed++);
        const S8Channels ch = s8_channels(m, seed++);
        const std::int32_t q_lo = ((m + n) % 2 == 0) ? 0 : -128;
        std::vector<std::int8_t> ref8(ref.size()), got8(ref.size(), 99);
        const std::uint64_t sat_ref = mk_gemm_s8(*t, a8.data(), b8.data(), ref8.data(), m, n, k,
                                                 ch.bias.data(), ch.rq.data(), q_lo, 127);
        const std::uint64_t sat_got = mk_gemm_s8_t(*t, a8.data(), b8.data(), got8.data(), m, n,
                                                   k, ch.bias.data(), ch.rq.data(), q_lo, 127);
        ASSERT_EQ(sat_got, sat_ref) << at;
        ASSERT_EQ(got8, ref8) << at;
      }
    }
  }
}

TEST(Microkernel, ColumnPanelSplitIsBitwiseInvariant) {
  // A transposed step splits the weight (B) column panels over the pool;
  // every split must produce the bits of one full-range call.
  const auto* t = best_simd_table();
  if (t == nullptr) GTEST_SKIP() << "no SIMD microkernels";
  const std::int64_t m = 53, n = 5, k = 65;
  const auto a = rand_f32(static_cast<std::size_t>(m * k), 20);
  const auto b = rand_f32(static_cast<std::size_t>(k * n), 21);
  const auto bias = rand_f32(static_cast<std::size_t>(m), 22);
  std::vector<float> whole(static_cast<std::size_t>(m * n));
  mk_gemm_f32_t(*t, a.data(), b.data(), whole.data(), m, n, k, bias.data(), OpKind::kRelu, 0.0);
  const std::int64_t panels = panel_count(m, t->f32.nr);
  ASSERT_GT(panels, 2);
  for (std::int64_t split = 1; split < panels; ++split) {
    std::vector<float> parts(whole.size(), -1.0f);
    mk_gemm_f32_t(*t, a.data(), b.data(), parts.data(), m, n, k, bias.data(), OpKind::kRelu, 0.0,
                  0, split);
    mk_gemm_f32_t(*t, a.data(), b.data(), parts.data(), m, n, k, bias.data(), OpKind::kRelu, 0.0,
                  split, panels);
    ASSERT_TRUE(same_f32_bits(parts, whole)) << "split=" << split;
  }

  if (t->gemm_s8 == nullptr) return;
  const auto a8 = rand_s8(static_cast<std::size_t>(m * k), 23);
  const auto b8 = rand_s8(static_cast<std::size_t>(k * n), 24);
  const S8Channels ch = s8_channels(m, 25);
  std::vector<std::int8_t> whole8(whole.size());
  const std::uint64_t sat = mk_gemm_s8_t(*t, a8.data(), b8.data(), whole8.data(), m, n, k,
                                         ch.bias.data(), ch.rq.data(), -128, 127);
  const std::int64_t panels8 = panel_count(m, t->s8.nr);
  for (std::int64_t split = 1; split < panels8; ++split) {
    std::vector<std::int8_t> parts(whole8.size(), 99);
    const std::uint64_t s1 = mk_gemm_s8_t(*t, a8.data(), b8.data(), parts.data(), m, n, k,
                                          ch.bias.data(), ch.rq.data(), -128, 127, 0, split);
    const std::uint64_t s2 = mk_gemm_s8_t(*t, a8.data(), b8.data(), parts.data(), m, n, k,
                                          ch.bias.data(), ch.rq.data(), -128, 127, split, panels8);
    EXPECT_EQ(s1 + s2, sat) << "split=" << split;
    ASSERT_EQ(parts, whole8) << "split=" << split;
  }
}

// ---------------------------------------------------------------------------
// Dispatch resolution and env overrides
// ---------------------------------------------------------------------------

TEST(Dispatch, ForcePortableEnvWinsOverEverything) {
  ScopedEnv force("VEDLIOT_FORCE_PORTABLE", "1");
  EXPECT_EQ(util::resolve_simd_level(util::SimdLevel::kAuto), util::SimdLevel::kPortable);
  EXPECT_EQ(util::resolve_simd_level(util::SimdLevel::kAvx2), util::SimdLevel::kPortable);
}

TEST(Dispatch, ForcePortableZeroIsOff) {
  ScopedEnv force("VEDLIOT_FORCE_PORTABLE", "0");
  const auto resolved = util::resolve_simd_level(util::SimdLevel::kAuto);
  // "0" disables the kill switch: kAuto resolves to the host's best level.
  const auto* t = best_simd_table();
  if (t != nullptr) {
    EXPECT_EQ(resolved, t->level);
  } else {
    EXPECT_EQ(resolved, util::SimdLevel::kPortable);
  }
}

TEST(Dispatch, SimdEnvSelectsLevel) {
  // Neutralize an ambient kill switch (tier1 runs this suite with
  // VEDLIOT_FORCE_PORTABLE=1); "0" means off.
  ScopedEnv off("VEDLIOT_FORCE_PORTABLE", "0");
  {
    ScopedEnv sel("VEDLIOT_SIMD", "portable");
    EXPECT_EQ(util::resolve_simd_level(util::SimdLevel::kAuto),
              util::SimdLevel::kPortable);
  }
  {
    ScopedEnv sel("VEDLIOT_SIMD", "avx2");
    const auto resolved = util::resolve_simd_level(util::SimdLevel::kAuto);
    if (util::simd_supported(util::SimdLevel::kAvx2)) {
      EXPECT_EQ(resolved, util::SimdLevel::kAvx2);
    } else {
      // Unsupported request degrades to portable rather than crashing.
      EXPECT_EQ(resolved, util::SimdLevel::kPortable);
    }
  }
}

TEST(Dispatch, PortableLevelHasNoTable) {
  EXPECT_EQ(runtime_kernels::gemm_microkernels(util::SimdLevel::kPortable), nullptr);
}

TEST(Dispatch, ExecutorReportsActiveLevel) {
  ScopedEnv off("VEDLIOT_FORCE_PORTABLE", "0");
  Graph g = zoo::micro_mlp("m", 1, 16, {24, 12}, 4);
  Rng rng(3);
  g.materialize_weights(rng);
  const Tensor in(Shape{1, 16}, rand_f32(16, 42));

  Executor exec(g);
  exec.set_exec_config({.simd = util::SimdLevel::kPortable});
  (void)testutil::exec_single(exec, g, in);
  EXPECT_EQ(exec.active_simd(), util::SimdLevel::kPortable);

  exec.set_exec_config({.simd = util::SimdLevel::kAuto});
  (void)testutil::exec_single(exec, g, in);
  const auto* t = best_simd_table();
  EXPECT_EQ(exec.active_simd(), t != nullptr ? t->level : util::SimdLevel::kPortable);

  // The kill switch overrides the per-run resolution too.
  ScopedEnv force("VEDLIOT_FORCE_PORTABLE", "1");  // shadows `off` until scope end
  (void)testutil::exec_single(exec, g, in);
  EXPECT_EQ(exec.active_simd(), util::SimdLevel::kPortable);
}

// ---------------------------------------------------------------------------
// Session-level agreement across dispatch levels
// ---------------------------------------------------------------------------

/// micro_cnn with grouped and depthwise convolutions spliced in, so one
/// graph covers the standard, grouped, and depthwise conv paths.
Graph conv_variants_graph(std::int64_t batch = 1) {
  Graph g("convs");
  const NodeId in = g.add_input("x", Shape{batch, 4, 10, 10});
  AttrMap a1;
  a1.set_int("out_channels", 8);
  a1.set_int("kernel", 3);
  a1.set_int("stride", 1);
  a1.set_int("pad", 1);
  a1.set_int("groups", 1);
  a1.set_int("bias", 1);
  const NodeId c1 = g.add(OpKind::kConv2d, "c1", {in}, std::move(a1));
  const NodeId r1 = g.add(OpKind::kRelu, "r1", {c1});
  AttrMap a2;  // grouped: 8 -> 8 with 2 groups
  a2.set_int("out_channels", 8);
  a2.set_int("kernel", 3);
  a2.set_int("stride", 1);
  a2.set_int("pad", 1);
  a2.set_int("groups", 2);
  a2.set_int("bias", 1);
  const NodeId c2 = g.add(OpKind::kConv2d, "c2_grouped", {r1}, std::move(a2));
  AttrMap a3;  // depthwise: groups == channels
  a3.set_int("out_channels", 8);
  a3.set_int("kernel", 3);
  a3.set_int("stride", 1);
  a3.set_int("pad", 1);
  a3.set_int("groups", 8);
  a3.set_int("bias", 1);
  const NodeId c3 = g.add(OpKind::kConv2d, "c3_dw", {c2}, std::move(a3));
  const NodeId r3 = g.add(OpKind::kRelu, "r3", {c3});
  const NodeId flat = g.add(OpKind::kFlatten, "flat", {r3});
  AttrMap ad;
  ad.set_int("units", 5);
  ad.set_int("bias", 1);
  g.add(OpKind::kDense, "head", {flat}, std::move(ad));
  return g;
}

Tensor run_at_level(const Graph& g, const Tensor& in, util::SimdLevel level,
                    unsigned threads = 1) {
  Executor exec(g);
  exec.set_exec_config({.threads = threads, .simd = level});
  return testutil::exec_single(exec, g, in);
}

TEST(SessionDispatch, F32ConvVariantsAgreeAcrossLevels) {
  Graph g = conv_variants_graph();
  Rng rng(5);
  g.materialize_weights(rng);
  const Tensor in(Shape{1, 4, 10, 10}, rand_f32(400, 77));
  const Tensor portable = run_at_level(g, in, util::SimdLevel::kPortable);
  const Tensor simd = run_at_level(g, in, util::SimdLevel::kAuto);
  // Standard + grouped convs ride the f32 microkernel (FMA contraction →
  // tight tolerance); depthwise stays on the direct kernel at every level.
  EXPECT_LT(max_abs_diff(portable, simd), 1e-4f);
}

/// Full int8 pre-deployment pipeline (mirrors test_qruntime's helper).
Graph deploy_ready_q(Graph g, std::uint64_t seed, const Shape& input_shape) {
  Rng rng(seed);
  g.materialize_weights(rng);
  opt::FuseBatchNormPass bn;
  bn.run(g);
  opt::FuseActivationPass act;
  act.run(g);
  std::vector<Tensor> samples;
  Rng data_rng(seed + 1);
  for (int i = 0; i < 8; ++i) {
    samples.emplace_back(input_shape,
                         data_rng.normal_vector(static_cast<std::size_t>(input_shape.numel())));
  }
  opt::calibrate_activations(g, samples, Calibration::kMinMax);
  return g;
}

TEST(SessionDispatch, Int8ConvVariantsBitwiseAcrossLevels) {
  const Shape in_shape{1, 4, 10, 10};
  Graph g = deploy_ready_q(conv_variants_graph(), 9, in_shape);
  const Tensor in(in_shape, rand_f32(400, 78));

  Executor portable(g, DType::kINT8);
  portable.set_exec_config({.simd = util::SimdLevel::kPortable});
  const QTensor qp = testutil::qexec_single(portable, g, in);

  Executor simd(g, DType::kINT8);
  simd.set_exec_config({.simd = util::SimdLevel::kAuto});
  const QTensor qs = testutil::qexec_single(simd, g, in);

  // Exact int32 arithmetic at every level: bytes and saturation counters
  // must be identical, not merely close.
  ASSERT_EQ(qp.data.size(), qs.data.size());
  for (std::size_t i = 0; i < qp.data.size(); ++i) ASSERT_EQ(qp.data[i], qs.data[i]);
  EXPECT_EQ(portable.saturations(), simd.saturations());
}

TEST(SessionDispatch, Int8DenseBatchedBitwiseAcrossLevels) {
  const Shape in_shape{4, 16};
  Graph g = deploy_ready_q(zoo::micro_mlp("m", 4, 16, {24, 12}, 4), 13, in_shape);
  const Tensor in(in_shape, rand_f32(64, 80));
  Executor portable(g, DType::kINT8);
  portable.set_exec_config({.simd = util::SimdLevel::kPortable});
  Executor simd(g, DType::kINT8);
  simd.set_exec_config({.simd = util::SimdLevel::kAuto});
  const QTensor qp = testutil::qexec_single(portable, g, in);
  const QTensor qs = testutil::qexec_single(simd, g, in);
  for (std::size_t i = 0; i < qp.data.size(); ++i) ASSERT_EQ(qp.data[i], qs.data[i]);
}

// ---------------------------------------------------------------------------
// Parallel-vs-serial and batch-lane determinism at the SIMD level
// ---------------------------------------------------------------------------

TEST(Determinism, ParallelVsSerialBitwiseAtSimdLevel) {
  Graph g = conv_variants_graph();
  Rng rng(21);
  g.materialize_weights(rng);
  const Tensor in(Shape{1, 4, 10, 10}, rand_f32(400, 90));
  const Tensor serial = run_at_level(g, in, util::SimdLevel::kAuto, 1);
  const Tensor parallel = run_at_level(g, in, util::SimdLevel::kAuto, 4);
  EXPECT_FLOAT_EQ(max_abs_diff(serial, parallel), 0.0f);

  const Tensor pserial = run_at_level(g, in, util::SimdLevel::kPortable, 1);
  const Tensor pparallel = run_at_level(g, in, util::SimdLevel::kPortable, 4);
  EXPECT_FLOAT_EQ(max_abs_diff(pserial, pparallel), 0.0f);
}

TEST(Determinism, Int8ParallelVsSerialBitwiseAtSimdLevel) {
  const Shape in_shape{1, 4, 10, 10};
  Graph g = deploy_ready_q(conv_variants_graph(), 31, in_shape);
  const Tensor in(in_shape, rand_f32(400, 91));
  Executor serial(g, DType::kINT8);
  serial.set_exec_config({.threads = 1, .simd = util::SimdLevel::kAuto});
  Executor parallel(g, DType::kINT8);
  parallel.set_exec_config({.threads = 4, .simd = util::SimdLevel::kAuto});
  const QTensor a = testutil::qexec_single(serial, g, in);
  const QTensor b = testutil::qexec_single(parallel, g, in);
  for (std::size_t i = 0; i < a.data.size(); ++i) ASSERT_EQ(a.data[i], b.data[i]);
  EXPECT_EQ(serial.saturations(), parallel.saturations());
}

TEST(Determinism, BatchLanesBitwiseEqualAtSimdLevel) {
  // Zero-padded panel tails mean every lane of a batched dense executes the
  // identical FMA sequence: 8 copies of one sample must produce 8 bitwise
  // identical output rows (the fleet CRC contract at SIMD dispatch).
  Graph g = zoo::micro_mlp("m", 8, 16, {24, 12}, 4);
  Rng rng(51);
  g.materialize_weights(rng);
  const auto one = rand_f32(16, 93);
  std::vector<float> stacked;
  for (int i = 0; i < 8; ++i) stacked.insert(stacked.end(), one.begin(), one.end());
  Executor exec(g);
  exec.set_exec_config({.simd = util::SimdLevel::kAuto});
  const Tensor out = testutil::exec_single(exec, g, Tensor(Shape{8, 16}, stacked));
  const auto d = out.data();
  const std::size_t row = static_cast<std::size_t>(out.shape().dim(1));
  for (std::size_t lane = 1; lane < 8; ++lane) {
    for (std::size_t j = 0; j < row; ++j) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(d[lane * row + j]),
                std::bit_cast<std::uint32_t>(d[j]))
          << "lane=" << lane << " j=" << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Packed-weight cache lifecycle
// ---------------------------------------------------------------------------

TEST(ExecutionPlan, RepacksOnlyWhenVersionOrTileChanges) {
  // The panels live in the compiled plan: steady-state runs reuse them, a
  // moved Graph::version() (touch) or a different dispatch tile recompiles
  // and repacks, and portable dispatch packs nothing.
  if (resolved_table() == nullptr) GTEST_SKIP() << "no SIMD microkernels at the resolved level";
  Graph g = conv_variants_graph();
  Rng rng(63);
  g.materialize_weights(rng);
  const Tensor in(Shape{1, 4, 10, 10}, rand_f32(400, 97));
  Executor exec(g);
  (void)testutil::exec_single(exec, g, in);
  const std::size_t packs = exec.weight_packs();
  EXPECT_GT(packs, 0u);
  (void)testutil::exec_single(exec, g, in);
  EXPECT_EQ(exec.weight_packs(), packs);  // steady state
  g.touch();
  (void)testutil::exec_single(exec, g, in);
  EXPECT_EQ(exec.weight_packs(), 2 * packs);  // version moved
  exec.set_exec_config({.simd = util::SimdLevel::kPortable});
  (void)testutil::exec_single(exec, g, in);
  EXPECT_EQ(exec.weight_packs(), 2 * packs);  // no tile, nothing packed
  exec.set_exec_config({.simd = util::SimdLevel::kAuto});
  (void)testutil::exec_single(exec, g, in);
  EXPECT_EQ(exec.weight_packs(), 3 * packs);  // tile changed back
  (void)testutil::exec_single(exec, g, in);
  EXPECT_EQ(exec.weight_packs(), 3 * packs);
}

TEST(PackedWeightCache, ExecutorReusesPacksAcrossRuns) {
  const auto* t = resolved_table();
  if (t == nullptr) GTEST_SKIP() << "no SIMD microkernels at the resolved level";
  Graph g = conv_variants_graph();
  Rng rng(61);
  g.materialize_weights(rng);
  const Tensor in(Shape{1, 4, 10, 10}, rand_f32(400, 94));
  Executor exec(g);
  (void)testutil::exec_single(exec, g, in);
  const std::size_t after_first = exec.weight_packs();
  EXPECT_GT(after_first, 0u);
  (void)testutil::exec_single(exec, g, in);
  (void)testutil::exec_single(exec, g, in);
  EXPECT_EQ(exec.weight_packs(), after_first);  // steady state: cache hits only
}

// ---------------------------------------------------------------------------
// OTA-repair self-heal: corrupt → scrub → repair → bitwise-clean rerun
// ---------------------------------------------------------------------------

/// Flip one mantissa bit of the first parametric node's first weight tensor.
void flip_weight_bit(Graph& g) {
  for (NodeId id : g.topo_order()) {
    Node& n = g.node(id);
    if (n.weights.empty()) continue;
    float& w = n.weights.front().at(0);
    w = std::bit_cast<float>(std::bit_cast<std::uint32_t>(w) ^ (1u << 22));
    g.touch();
    return;
  }
  FAIL() << "graph has no parametric node";
}

TEST(SelfHeal, F32RepairInvalidatesPackedPanels) {
  const auto* t = resolved_table();
  if (t == nullptr) GTEST_SKIP() << "no SIMD microkernels at the resolved level";
  Graph live = conv_variants_graph();
  Rng rng(71);
  live.materialize_weights(rng);
  safety::ModelStore store;
  store.install("net", live);
  const Tensor in(Shape{1, 4, 10, 10}, rand_f32(400, 95));

  Executor exec(live);
  const Tensor clean = testutil::exec_single(exec, live, in);
  const std::size_t packs0 = exec.weight_packs();

  safety::WeightScrubber scrub(live, {64});  // baselines the clean bits
  flip_weight_bit(live);
  (void)testutil::exec_single(exec, live, in);  // runs on corrupt weights
  EXPECT_GT(exec.weight_packs(), packs0);       // version bump → repack

  const auto hits = scrub.full_scan();
  ASSERT_FALSE(hits.empty());
  EXPECT_GE(store.repair("net", live, hits), 1u);

  const Tensor healed = testutil::exec_single(exec, live, in);
  // Healed weights + invalidated panels: output is bitwise the clean run.
  EXPECT_FLOAT_EQ(max_abs_diff(healed, clean), 0.0f);
}

TEST(SelfHeal, Int8RepairTriggersRepreparationAndBitwiseCleanRerun) {
  const Shape in_shape{1, 4, 10, 10};
  Graph live = deploy_ready_q(conv_variants_graph(), 81, in_shape);
  safety::ModelStore store;
  store.install("net", live);
  const Tensor in(in_shape, rand_f32(400, 96));

  Executor exec(live, DType::kINT8);
  EXPECT_EQ(exec.preparations(), 1u);
  const QTensor clean = testutil::qexec_single(exec, live, in);

  safety::WeightScrubber scrub(live, {64});  // baselines the clean bits
  flip_weight_bit(live);
  (void)testutil::qexec_single(exec, live, in);  // self-heal re-quantizes from the corrupt bits
  EXPECT_EQ(exec.preparations(), 2u);

  const auto hits = scrub.full_scan();
  ASSERT_FALSE(hits.empty());
  EXPECT_GE(store.repair("net", live, hits), 1u);

  const QTensor healed = testutil::qexec_single(exec, live, in);
  EXPECT_EQ(exec.preparations(), 3u);  // repair touched the graph again
  ASSERT_EQ(healed.data.size(), clean.data.size());
  for (std::size_t i = 0; i < clean.data.size(); ++i) {
    ASSERT_EQ(healed.data[i], clean.data[i]);
  }
}

// ---------------------------------------------------------------------------
// Random-graph corpus (tests/random_graph.hpp)
// ---------------------------------------------------------------------------

/// Outputs of one run in output-name order, plus its saturation count.
struct GraphRun {
  std::vector<Tensor> outs;
  std::uint64_t saturations = 0;
};

/// One run of \p exec on \p x; saturations are the run's own.
GraphRun run_on(Executor& exec, const Graph& g, const Tensor& x) {
  const std::uint64_t before = exec.saturations();
  GraphRun r;
  for (auto& [name, t] : exec.run({{g.node(g.inputs().front()).name, x}})) {
    r.outs.push_back(std::move(t));
  }
  r.saturations = exec.saturations() - before;
  return r;
}

GraphRun run_graph(const Graph& g, DType dtype, const Tensor& x, util::SimdLevel level,
                   unsigned threads = 1) {
  Executor exec(g, dtype);
  exec.set_exec_config({.threads = threads, .simd = level});
  return run_on(exec, g, x);
}

/// Lanes [first, first + count) of \p x.
Tensor lanes_of(const Tensor& x, std::int64_t first, std::int64_t count) {
  const std::int64_t per = x.numel() / x.shape().dim(0);
  std::vector<std::int64_t> dims(x.shape().dims().begin(), x.shape().dims().end());
  dims[0] = count;
  const float* in = x.data().data() + first * per;
  return Tensor(Shape(dims), std::vector<float>(in, in + count * per));
}

bool same_bytes(const float* a, const float* b, std::int64_t count) {
  return std::memcmp(a, b, static_cast<std::size_t>(count) * sizeof(float)) == 0;
}

bool bitwise_equal(const GraphRun& a, const GraphRun& b) {
  if (a.outs.size() != b.outs.size() || a.saturations != b.saturations) return false;
  for (std::size_t i = 0; i < a.outs.size(); ++i) {
    if (a.outs[i].shape() != b.outs[i].shape() ||
        !same_bytes(a.outs[i].data().data(), b.outs[i].data().data(), a.outs[i].numel())) {
      return false;
    }
  }
  return true;
}

/// Each lane of a run on \p g's plan is bitwise its singleton run (the
/// graph at batch 1, fed that lane alone), and the run's saturations are the
/// sum of its lanes'. One executor runs the full batch of \p x, then each
/// narrower prefix of it on the same compiled plan, so an op body that still
/// covers the built batch shows up as saturations from lanes it should have
/// left alone.
void expect_lanes_match_singletons(const Graph& g, DType dtype, const Tensor& x,
                                   util::SimdLevel level, const std::string& what) {
  const std::int64_t lanes = x.shape().dim(0);
  const Graph single = rebatched(g, 1);
  std::vector<GraphRun> singles;
  for (std::int64_t b = 0; b < lanes; ++b) {
    singles.push_back(run_graph(single, dtype, lanes_of(x, b, 1), level));
  }
  Executor exec(g, dtype);
  exec.set_exec_config({.simd = level});
  for (std::int64_t n = lanes; n >= 1; --n) {
    const std::string at = what + ", " + std::to_string(n) + " lanes";
    const GraphRun r = run_on(exec, g, lanes_of(x, 0, n));
    std::uint64_t saturations = 0;
    for (std::int64_t b = 0; b < n; ++b) {
      const GraphRun& s = singles[static_cast<std::size_t>(b)];
      saturations += s.saturations;
      ASSERT_EQ(s.outs.size(), r.outs.size()) << at;
      for (std::size_t i = 0; i < s.outs.size(); ++i) {
        const std::int64_t m = s.outs[i].numel();
        ASSERT_EQ(r.outs[i].numel(), n * m) << at << " output " << i;
        EXPECT_TRUE(same_bytes(r.outs[i].data().data() + b * m, s.outs[i].data().data(), m))
            << at << ": lane " << b << " output " << i;
      }
    }
    EXPECT_EQ(saturations, r.saturations) << at;
  }
}

/// Chain one run into a corpus digest: FNV-1a over the decimal CRC-32 of
/// every output (and, for int8, the saturation count). The same text goes
/// to \p log, one line per seed, so a mismatch prints every graph's CRCs.
std::uint64_t fold_run(std::uint64_t digest, std::uint64_t seed, const GraphRun& r, bool int8,
                       std::string& log) {
  std::string text;
  for (const Tensor& t : r.outs) text += std::to_string(util::crc32(t.data())) + " ";
  if (int8) text += "sat " + std::to_string(r.saturations);
  log += "seed " + std::to_string(seed) + ": " + text + "\n";
  return util::fnv1a64(text + ";", digest);
}

TEST(PinnedOutputs, RandomGraphsBitExact) {
  // Digests of the 48-seed corpus, recorded once: f32 at portable dispatch,
  // f32 at AVX2, and int8 (one constant for every level: integer
  // arithmetic is exact). A change means the engine's arithmetic changed on
  // some generated graph; diff the printed per-seed CRCs against the
  // recording commit's printout to find it.
  constexpr std::uint64_t kSeeds = 48;
  constexpr std::uint64_t kF32Portable = 15287958322865209017ull;
  constexpr std::uint64_t kF32Avx2 = 15901476181097323150ull;
  constexpr std::uint64_t kInt8 = 12509227349513464999ull;

  const util::SimdLevel resolved = util::resolve_simd_level(util::SimdLevel::kAuto);
  std::vector<util::SimdLevel> levels{util::SimdLevel::kPortable};
  if (resolved != util::SimdLevel::kPortable) levels.push_back(resolved);
  const std::uint64_t basis = util::fnv1a64("");
  std::uint64_t f32_digest[2] = {basis, basis}, int8_digest[2] = {basis, basis};
  std::string f32_log[2], int8_log[2];

  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    for (DType dtype : {DType::kFP32, DType::kINT8}) {
      const bool int8 = dtype == DType::kINT8;
      Graph g = testutil::random_graph(seed, dtype);
      const std::string what = g.name();
      ASSERT_TRUE(analysis::verify_graph(g).ok()) << what;
      ASSERT_GE(g.size(), 5u) << what;
      ASSERT_LE(g.size(), 13u) << what;
      const Shape in = g.node(g.inputs().front()).out_shape;
      if (int8) {
        // Calibration runs f32; pin it to portable so the act_scales do not
        // depend on the host's SIMD level.
        ScopedEnv portable("VEDLIOT_SIMD", "portable");
        Rng cal_rng(seed + 1000);
        std::vector<Tensor> samples;
        for (int i = 0; i < 3; ++i) {
          samples.emplace_back(in, cal_rng.normal_vector(static_cast<std::size_t>(in.numel())));
        }
        opt::calibrate_activations(g, samples, Calibration::kMinMax);
      }
      Rng data_rng(seed + 2000);
      const Tensor x(in, data_rng.normal_vector(static_cast<std::size_t>(in.numel())));

      GraphRun first;
      for (std::size_t li = 0; li < levels.size(); ++li) {
        const util::SimdLevel level = levels[li];
        const std::string at = what + " at " + std::string(util::simd_level_name(level));
        const GraphRun r = run_graph(g, dtype, x, level);
        EXPECT_TRUE(bitwise_equal(r, run_graph(g, dtype, x, level, 3))) << at << ": threads 3";
        if (in.dim(0) > 1) expect_lanes_match_singletons(g, dtype, x, level, at);
        if (int8 && li > 0) {
          EXPECT_TRUE(bitwise_equal(r, first)) << at << ": vs portable";
        }
        if (li == 0) first = r;
        if (int8) {
          int8_digest[li] = fold_run(int8_digest[li], seed, r, true, int8_log[li]);
        } else {
          f32_digest[li] = fold_run(f32_digest[li], seed, r, false, f32_log[li]);
        }
      }
    }
  }

  EXPECT_EQ(f32_digest[0], kF32Portable) << "f32 portable per-seed CRCs:\n" << f32_log[0];
  EXPECT_EQ(int8_digest[0], kInt8) << "int8 portable per-seed CRCs:\n" << int8_log[0];
  if (levels.size() > 1) {
    EXPECT_EQ(int8_digest[1], kInt8) << "int8 SIMD per-seed CRCs:\n" << int8_log[1];
    if (resolved == util::SimdLevel::kAvx2) {
      EXPECT_EQ(f32_digest[1], kF32Avx2) << "f32 AVX2 per-seed CRCs:\n" << f32_log[1];
    }
  }
}

// ---------------------------------------------------------------------------
// Roofline probes
// ---------------------------------------------------------------------------

TEST(Roofline, ProbesMeasurePositiveRoofs) {
  const auto roof = hw::measure_host_roofline(util::SimdLevel::kPortable, 0.005);
  EXPECT_EQ(roof.level, util::SimdLevel::kPortable);
  EXPECT_GT(roof.f32_gflops, 0.0);
  EXPECT_GT(roof.s8_gops, 0.0);
}

TEST(Roofline, FractionClampsAndDivides) {
  EXPECT_DOUBLE_EQ(hw::fraction_of_roofline(5.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(hw::fraction_of_roofline(0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(hw::fraction_of_roofline(5.0, 0.0), 0.0);
}

}  // namespace
}  // namespace vedliot
