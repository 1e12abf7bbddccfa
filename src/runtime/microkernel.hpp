#pragma once
/// \file microkernel.hpp
/// \brief Register-tiled GEMM microkernels with runtime SIMD dispatch.
///
/// The blocked-GEMM recipe from *Performance Analysis of Matrix
/// Multiplication for Deep Learning on the Edge*: the cache-blocked loop
/// nest (kernels.hpp / executor) keeps operands resident, and the inner
/// mr x nr tile is computed by an architecture-specific microkernel that
/// holds the whole accumulator tile in vector registers. Both operands are
/// repacked into panel layouts so the microkernel reads two contiguous
/// streams, the mr broadcast rows of packed A and the nr vector columns of
/// packed B:
///
///   packed A, panel p of mr rows:  [p][k][r]  (k-major, r minor)
///   packed B, panel q of nr cols:  [q][k][j]
///
/// int8 packs differ: A becomes int16 k-pairs in one int32 word per (k/2,
/// row), B interleaves adjacent k rows byte-wise so AVX2 `madd_epi16`
/// accumulates two k steps per instruction with exact int32 arithmetic.
///
/// Which operand is which is a per-step property of the compiled plan
/// (gemm_transposed):
///  - untransposed, C = W·X: the weights W [channels x k] are packed A (once,
///    when the plan compiles), the activations X [k x cols] — im2col columns
///    or a dense layer's lanes — packed B (each run), and a tile row is an
///    output channel;
///  - transposed, Cᵀ = Xᵀ·Wᵀ, for a step whose activation side is thinner
///    than the tile's vector width: the weights are packed B (once, as int8
///    bytes rather than int16 pairs), the few activation columns packed A
///    (each run), and a tile column is an output channel (GemmStore::
///    channel_on_cols), through both the bias init and the epilogue.
/// The packs read their source through a (row, column) stride pair, so one
/// routine packs a matrix or its transpose (a dense layer's input) in place.
///
/// Determinism contract (per dispatch level):
///  - every output element starts at its bias and accumulates its K
///    products in ascending k order whatever the panel partition or the
///    step's orientation (a transposed step only trades the two factors of
///    each product between the operands), so parallel-vs-serial runs are
///    bitwise identical at every level;
///  - the int8 microkernel performs the same exact int32 arithmetic as the
///    scalar reference (gemm_rows<S8Policy>), so its outputs are bitwise
///    equal to portable at any K/M/N;
///  - the f32 microkernel keeps the scalar k order but contracts each
///    multiply-add to one FMA rounding, so SIMD-vs-portable agrees to a
///    tight ULP bound rather than bitwise. Every level stores its tile
///    through one store_tile over the dtype policy (a row-major tile row
///    through the policy's row epilogue), so the epilogue math (activation
///    or requantization) is identical.
///
/// Tail handling: partial row/column panels are zero-padded during packing
/// and the epilogue stores only the valid region, so every lane — including
/// a batch-1 dense column — executes the identical instruction sequence.
/// That is what keeps a lane of a batched run bitwise equal to the same
/// sample run alone (the PR 7 fleet contract) at SIMD levels too.

#include <cstdint>

#include "runtime/kernels.hpp"
#include "util/cpu.hpp"

namespace vedliot::runtime_kernels {

/// Register tile of one microkernel; {0, 0} means "no microkernel at this
/// level" (caller falls back to the portable scalar path).
struct MicrokernelTile {
  std::int64_t mr = 0;
  std::int64_t nr = 0;
  bool available() const { return mr > 0 && nr > 0; }
};

inline std::int64_t panel_count(std::int64_t extent, std::int64_t tile) {
  return (extent + tile - 1) / tile;
}

/// Whether a GEMM step of \p m output channels over \p cols activation
/// columns (a conv's output pixels, a dense layer's built batch) runs
/// transposed at tile \p t: when its activation side is narrower than the
/// tile's vector width and the transposed tile grid pads fewer elements.
/// A pure function of its arguments, so the orientation is fixed when the
/// plan compiles, like the panels.
bool gemm_transposed(std::int64_t m, std::int64_t cols, const MicrokernelTile& t);

/// Packed-buffer element counts (floats / int32 words / bytes).
std::size_t packed_a_f32_elems(std::int64_t m, std::int64_t k, const MicrokernelTile& t);
std::size_t packed_b_f32_elems(std::int64_t k, std::int64_t n, const MicrokernelTile& t);
std::size_t packed_a_s8_words(std::int64_t m, std::int64_t k, const MicrokernelTile& t);
std::size_t packed_b_s8_bytes(std::int64_t k, std::int64_t n, const MicrokernelTile& t);

/// Pack the [M x K] matrix whose element (row, kp) is a[row * rs + kp * ks]
/// into mr-row panels (zero-padded tail rows). Generic over the tile, so
/// every dispatch level shares it.
void pack_a_f32(const float* a, std::int64_t m, std::int64_t k, std::int64_t rs, std::int64_t ks,
                const MicrokernelTile& t, float* packed);
/// Pack column panels [panel_lo, panel_hi) of the [K x N] matrix whose
/// element (kp, j) is b[kp * ks + j * cs] into nr-column panels
/// (zero-padded tail columns); panel-ranged so the packing itself
/// partitions over the thread pool. A source with contiguous columns
/// (cs == 1) is read row by row, any other column by column, so a
/// transposed weight matrix is read one weight row at a time.
void pack_b_f32(const float* b, std::int64_t k, std::int64_t n, std::int64_t ks, std::int64_t cs,
                const MicrokernelTile& t, std::int64_t panel_lo, std::int64_t panel_hi,
                float* packed);

/// int8 A: one int32 word holds the sign-extended int16 pair
/// (a(row, 2kp), a(row, 2kp+1)); odd K pads the second slot with zero.
void pack_a_s8(const std::int8_t* a, std::int64_t m, std::int64_t k, std::int64_t rs,
               std::int64_t ks, const MicrokernelTile& t, std::int32_t* packed);
/// int8 B: bytes (b(2kp, j), b(2kp+1, j)) interleaved per column so one
/// 32-byte load feeds madd_epi16 with two k steps for nr columns.
void pack_b_s8(const std::int8_t* b, std::int64_t k, std::int64_t n, std::int64_t ks,
               std::int64_t cs, const MicrokernelTile& t, std::int64_t panel_lo,
               std::int64_t panel_hi, std::int8_t* packed);

/// The tiles of one GEMM call: row panels [row_lo, row_hi) of packed A by
/// column panels [col_lo, col_hi) of packed B.
struct PanelRange {
  std::int64_t row_lo = 0, row_hi = 0, col_lo = 0, col_hi = 0;
};

/// The tiles \p panels of C = A·B over packed operands (M x K by K x N),
/// through the dtype policy's bias and epilogue (kernels.hpp), stored per
/// \p store; returns its int8 saturation count (0 for f32). The store and
/// the range pass by value.
template <typename P>
using GemmFn = std::uint64_t (*)(const typename P::PackedA* pa, const typename P::PackedB* pb,
                                 std::int64_t m, std::int64_t n, std::int64_t k,
                                 GemmStore<typename P::Elem> store, PanelRange panels,
                                 const P& p);

/// One dispatch level's kernel set. Levels may offer a subset (e.g. NEON
/// ships f32 only); unavailable entries have a zero tile and null fn.
struct GemmMicrokernels {
  util::SimdLevel level = util::SimdLevel::kPortable;
  MicrokernelTile f32;
  MicrokernelTile s8;
  GemmFn<F32Policy> gemm_f32 = nullptr;
  GemmFn<S8Policy> gemm_s8 = nullptr;
};

/// Microkernel table lookup for a *resolved* level (resolve_simd_level
/// first). Returns nullptr for kPortable or when the binary has no kernels
/// for the level — callers then use the scalar kernels in kernels.hpp.
const GemmMicrokernels* gemm_microkernels(util::SimdLevel resolved);

/// Measured compute roofs for the roofline model (hw/roofline.hpp): a
/// register-resident FMA / madd chain timed for at least \p min_seconds,
/// returning GFLOP/s (f32, 2 flops per FMA) or GOP/s (int8, 2 ops per MAC)
/// of one thread at the given resolved dispatch level.
double peak_probe_f32(util::SimdLevel resolved, double min_seconds);
double peak_probe_s8(util::SimdLevel resolved, double min_seconds);

}  // namespace vedliot::runtime_kernels
