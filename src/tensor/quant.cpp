#include "tensor/quant.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "util/error.hpp"

namespace vedliot {

namespace {

struct Range {
  float lo = 0.0f;
  float hi = 0.0f;
};

Range observed_range(std::span<const float> data, Calibration cal, double percentile) {
  VEDLIOT_CHECK(!data.empty(), "cannot calibrate on empty data");
  if (cal == Calibration::kMinMax) {
    auto [mn, mx] = std::minmax_element(data.begin(), data.end());
    return {*mn, *mx};
  }
  VEDLIOT_CHECK(percentile >= 0.0 && percentile < 50.0, "percentile must be in [0,50)");
  std::vector<float> sorted(data.begin(), data.end());
  std::sort(sorted.begin(), sorted.end());
  const auto n = sorted.size();
  const auto idx = [&](double p) {
    auto i = static_cast<std::size_t>(p / 100.0 * static_cast<double>(n - 1));
    return std::min(i, n - 1);
  };
  return {sorted[idx(percentile)], sorted[idx(100.0 - percentile)]};
}

void int_limits(DType dt, std::int32_t& qmin, std::int32_t& qmax) {
  switch (dt) {
    case DType::kINT8: qmin = -128; qmax = 127; return;
    case DType::kINT4: qmin = -8; qmax = 7; return;
    case DType::kBinary: qmin = -1; qmax = 1; return;
    default: throw InvalidArgument("quantization requires an integer dtype");
  }
}

}  // namespace

std::int32_t QuantParams::quantize(float v) const {
  const double q = std::nearbyint(static_cast<double>(v) / scale) + zero_point;
  return static_cast<std::int32_t>(std::clamp<double>(q, qmin, qmax));
}

float QuantParams::dequantize(std::int32_t q) const {
  return static_cast<float>(scale * (q - zero_point));
}

QuantParams choose_symmetric(std::span<const float> data, DType dt, Calibration cal,
                             double percentile) {
  QuantParams qp;
  int_limits(dt, qp.qmin, qp.qmax);
  const Range r = observed_range(data, cal, percentile);
  const double amax = std::max(std::abs(static_cast<double>(r.lo)), std::abs(static_cast<double>(r.hi)));
  qp.scale = amax > 0.0 ? amax / static_cast<double>(qp.qmax) : 1.0;
  qp.zero_point = 0;
  return qp;
}

QuantParams choose_affine(std::span<const float> data, DType dt, Calibration cal,
                          double percentile) {
  QuantParams qp;
  int_limits(dt, qp.qmin, qp.qmax);
  Range r = observed_range(data, cal, percentile);
  // The representable range must include zero so that padding/zero values
  // quantize exactly (standard TFLite-style constraint).
  r.lo = std::min(r.lo, 0.0f);
  r.hi = std::max(r.hi, 0.0f);
  const double span = static_cast<double>(r.hi) - static_cast<double>(r.lo);
  qp.scale = span > 0.0 ? span / static_cast<double>(qp.qmax - qp.qmin) : 1.0;
  const double zp = static_cast<double>(qp.qmin) - static_cast<double>(r.lo) / qp.scale;
  qp.zero_point = static_cast<std::int32_t>(std::clamp<double>(std::nearbyint(zp), qp.qmin, qp.qmax));
  return qp;
}

std::vector<std::int32_t> quantize(std::span<const float> data, const QuantParams& qp) {
  std::vector<std::int32_t> out(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) out[i] = qp.quantize(data[i]);
  return out;
}

std::vector<float> dequantize(std::span<const std::int32_t> q, const QuantParams& qp) {
  std::vector<float> out(q.size());
  for (std::size_t i = 0; i < q.size(); ++i) out[i] = qp.dequantize(q[i]);
  return out;
}

QuantParams fake_quantize(Tensor& t, DType dt, Calibration cal, double percentile) {
  auto qp = choose_symmetric(t.data(), dt, cal, percentile);
  for (float& v : t.data()) v = qp.dequantize(qp.quantize(v));
  return qp;
}

std::vector<QuantParams> fake_quantize_per_channel(Tensor& weight, DType dt) {
  VEDLIOT_CHECK(weight.shape().rank() == 4, "per-channel quantization expects OIHW weights");
  const auto oc = weight.shape().dim(0);
  const auto per = static_cast<std::size_t>(weight.numel() / oc);
  std::vector<QuantParams> params;
  params.reserve(static_cast<std::size_t>(oc));
  auto data = weight.data();
  for (std::int64_t c = 0; c < oc; ++c) {
    auto chan = data.subspan(static_cast<std::size_t>(c) * per, per);
    auto qp = choose_symmetric(chan, dt);
    for (float& v : chan) v = qp.dequantize(qp.quantize(v));
    params.push_back(qp);
  }
  return params;
}

Int8Channel quantize_int8_channel(std::span<const float> channel, double bias, double in_scale,
                                  std::int8_t* codes) {
  QuantParams qp = choose_symmetric(channel, DType::kINT8);
  const double bias_room = 2147483647.0 - static_cast<double>(channel.size()) * 127.0 * 128.0 - 1.0;
  if (bias_room > 0.0 && std::abs(bias) / (in_scale * qp.scale) > bias_room) {
    qp.scale = std::abs(bias) / (in_scale * bias_room);
  }
  for (std::size_t i = 0; i < channel.size(); ++i) {
    codes[i] = static_cast<std::int8_t>(qp.quantize(channel[i]));
  }
  return {qp.scale, static_cast<std::int32_t>(std::nearbyint(bias / (in_scale * qp.scale)))};
}

double quant_step(std::span<const float> data, DType dt) {
  return choose_symmetric(data, dt).scale;
}

float fp16_round_trip(float v) {
  const std::uint32_t x = std::bit_cast<std::uint32_t>(v);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::int32_t exp = static_cast<std::int32_t>((x >> 23) & 0xFFu) - 127 + 15;
  std::uint32_t mant = x & 0x7FFFFFu;

  std::uint16_t h;
  if (((x >> 23) & 0xFFu) == 0xFFu) {
    // Inf/NaN
    h = static_cast<std::uint16_t>(sign | 0x7C00u | (mant ? 0x200u : 0u));
  } else if (exp >= 31) {
    h = static_cast<std::uint16_t>(sign | 0x7C00u);  // overflow -> inf
  } else if (exp <= 0) {
    if (exp < -10) {
      h = static_cast<std::uint16_t>(sign);  // underflow -> signed zero
    } else {
      // subnormal half: h_mant = mant24 >> (14 - exp), round to nearest even
      mant |= 0x800000u;
      const int shift = 14 - exp;
      std::uint32_t sub = mant >> shift;
      // round to nearest even
      const std::uint32_t rem = mant & ((1u << shift) - 1);
      const std::uint32_t half = 1u << (shift - 1);
      if (rem > half || (rem == half && (sub & 1u))) ++sub;
      h = static_cast<std::uint16_t>(sign | sub);
    }
  } else {
    std::uint32_t m = mant >> 13;
    const std::uint32_t rem = mant & 0x1FFFu;
    if (rem > 0x1000u || (rem == 0x1000u && (m & 1u))) ++m;
    std::uint32_t e = static_cast<std::uint32_t>(exp);
    if (m == 0x400u) {  // mantissa rounding carried into the exponent
      m = 0;
      ++e;
    }
    if (e >= 31) {
      h = static_cast<std::uint16_t>(sign | 0x7C00u);
    } else {
      h = static_cast<std::uint16_t>(sign | (e << 10) | m);
    }
  }

  // half -> float
  const std::uint32_t hs = (h >> 15) & 1u;
  const std::uint32_t he = (h >> 10) & 0x1Fu;
  const std::uint32_t hm = h & 0x3FFu;
  std::uint32_t f;
  if (he == 0) {
    if (hm == 0) {
      f = hs << 31;
    } else {
      // subnormal half -> normalized float
      int e = -1;
      std::uint32_t m = hm;
      do {
        ++e;
        m <<= 1;
      } while ((m & 0x400u) == 0);
      f = (hs << 31) | (static_cast<std::uint32_t>(127 - 15 - e) << 23) | ((m & 0x3FFu) << 13);
    }
  } else if (he == 31) {
    f = (hs << 31) | 0x7F800000u | (hm << 13);
  } else {
    f = (hs << 31) | ((he - 15 + 127) << 23) | (hm << 13);
  }
  return std::bit_cast<float>(f);
}

void cast_fp16_inplace(Tensor& t) {
  for (float& v : t.data()) v = fp16_round_trip(v);
}

}  // namespace vedliot
