#include "runtime/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace vedliot::runtime_kernels {

Requant Requant::from_real(double real) {
  int exponent = 0;
  (void)std::frexp(real, &exponent);  // real = f·2^e with f in [0.5, 1)
  std::int32_t shift = 31 - exponent;  // multiplier f·2^31, in [2^30, 2^31]
  if (shift < 1) return {std::numeric_limits<std::int32_t>::max(), 1};
  shift = std::min(shift, 62);
  if (std::llround(std::ldexp(real, shift)) > std::numeric_limits<std::int32_t>::max()) {
    --shift;  // f rounded up to 1: 2^30 at one shift less
  }
  return from_real(real, shift);
}

Requant Requant::from_real(double real, std::int32_t shift) {
  VEDLIOT_CHECK(shift >= 1 && shift <= 62, "requant shift must be in [1, 62]");
  const long long m = std::llround(std::ldexp(real, shift));  // a NaN or infinity fails too
  VEDLIOT_CHECK(m >= 0 && m <= std::numeric_limits<std::int32_t>::max(),
                "requant ratio must be finite, not negative, and fit int32 at its shift");
  return {static_cast<std::int32_t>(m), shift};
}

EltwiseRequants eltwise_requants(double ra, double rb) {
  constexpr double kMaxRatio = 2097152.0;  // 2^21: at shift 1 both products still fit
  ra = std::min(ra, kMaxRatio);
  rb = std::min(rb, kMaxRatio);
  const auto reach = [&](std::int32_t shift) {
    return 128 * (std::llround(std::ldexp(ra, shift)) + std::llround(std::ldexp(rb, shift))) +
           (1LL << (shift - 1));
  };
  std::int32_t shift = 31;
  while (shift > 1 && reach(shift) >= (1LL << 31)) --shift;
  VEDLIOT_ASSERT(reach(shift) < (1LL << 31));
  return {Requant::from_real(ra, shift), Requant::from_real(rb, shift)};
}

std::uint64_t eltwise_s8(const std::int8_t* __restrict a, const std::int8_t* __restrict b,
                         std::int8_t* __restrict y, std::int64_t n, Requant ra, Requant rb,
                         std::int32_t q_lo, std::int32_t q_hi) {
  const std::int32_t ma = ra.multiplier, mb = rb.multiplier, shift = ra.shift;
  const std::int32_t half = std::int32_t{1} << (shift - 1);
  std::uint64_t saturations = 0;
  if (b == nullptr) {
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int32_t v = (a[i] * ma + half) >> shift;
      saturations += static_cast<std::uint64_t>((v < -128) | (v > 127));
      y[i] = static_cast<std::int8_t>(std::clamp(v, q_lo, q_hi));
    }
  } else {
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int32_t v = (a[i] * ma + b[i] * mb + half) >> shift;
      saturations += static_cast<std::uint64_t>((v < -128) | (v > 127));
      y[i] = static_cast<std::int8_t>(std::clamp(v, q_lo, q_hi));
    }
  }
  return saturations;
}

}  // namespace vedliot::runtime_kernels
