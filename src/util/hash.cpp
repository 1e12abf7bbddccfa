#include "util/hash.hpp"

#include <array>

#include "util/cpu.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define VEDLIOT_HAVE_X86 1
#define VEDLIOT_TARGET_PCLMUL __attribute__((target("pclmul")))
#endif

namespace vedliot::util {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

/// The bytewise table loop over the inverted CRC register \p c: the one
/// portable body, and the tail of every folded input.
std::uint32_t crc32_table(const std::uint8_t* p, std::size_t n, std::uint32_t c) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c;
}

#if defined(VEDLIOT_HAVE_X86)

/// Inputs shorter than this take the table loop: the fold needs one
/// 64-byte block to start its four lanes.
constexpr std::size_t kFoldMin = 64;

__m128i load(const std::uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// a·x^k folded onto b: the low and high 64-bit halves of \p a times their
/// constants in \p k, added to the next 128 bits of message \p b.
VEDLIOT_TARGET_PCLMUL inline __m128i fold(__m128i a, __m128i k, __m128i b) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00), _mm_clmulepi64_si128(a, k, 0x11)), b);
}

/// Carry-less-multiply fold of the inverted CRC register \p c over \p n
/// bytes, n >= 64 and a multiple of 16 (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel
/// 2009, in zlib's crc32_simd form). Four 128-bit lanes fold 64 bytes per
/// step by x^(512±32) mod P, merge into one lane by x^(128±32), take in
/// the remaining 16-byte blocks, then reduce 128 → 64 bits and, by Barrett
/// reduction, to the 32-bit register. The constants are those powers of x
/// modulo the reflected polynomial 0xEDB88320, bit-reflected.
VEDLIOT_TARGET_PCLMUL std::uint32_t crc32_fold(const std::uint8_t* p, std::size_t n,
                                              std::uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);  // P', mu
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 → 64 bits, then 64 → 32 by Barrett reduction.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x1, t), 4)));
}

/// Whether this process folds: decided at the first CRC, from the CPU's
/// pclmul bit and the portable kill switch as they read then.
bool fold_enabled() {
  static const bool enabled = cpu_features().pclmul && !portable_forced();
  return enabled;
}

#endif

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
#if defined(VEDLIOT_HAVE_X86)
  if (n >= kFoldMin && fold_enabled()) {
    const std::size_t folded = n & ~std::size_t{15};
    c = crc32_fold(p, folded, c);
    p += folded;
    n -= folded;
  }
#endif
  return crc32_table(p, n, c) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(std::span<const float> data, std::uint32_t seed) {
  const auto* raw = reinterpret_cast<const std::uint8_t*>(data.data());
  return crc32(std::span<const std::uint8_t>(raw, data.size() * sizeof(float)), seed);
}

std::uint64_t fnv1a64(std::string_view s, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace vedliot::util
