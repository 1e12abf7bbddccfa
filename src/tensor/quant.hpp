#pragma once
/// \file quant.hpp
/// \brief Quantization primitives for the Sec. III optimizing toolchain.
///
/// Supports symmetric and affine (asymmetric) INT8/INT4 quantization with
/// min-max or percentile calibration, per-tensor and per-channel scales, and
/// the fake-quant round trip the optimizer uses to model accuracy loss.

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/dtype.hpp"
#include "tensor/tensor.hpp"

namespace vedliot {

/// Affine quantization parameters: real = scale * (q - zero_point).
struct QuantParams {
  double scale = 1.0;
  std::int32_t zero_point = 0;
  std::int32_t qmin = -128;
  std::int32_t qmax = 127;

  /// Quantize one real value (round-to-nearest, saturating).
  std::int32_t quantize(float v) const;
  /// Dequantize one integer value.
  float dequantize(std::int32_t q) const;
};

/// Calibration strategy for choosing the clipping range.
enum class Calibration {
  kMinMax,       ///< use the exact observed min/max
  kPercentile,   ///< clip to the [p, 100-p] percentile range (robust to outliers)
};

/// Compute symmetric quantization parameters (zero_point == 0) for the
/// observed data range. \p dt must be an integer type.
QuantParams choose_symmetric(std::span<const float> data, DType dt,
                             Calibration cal = Calibration::kMinMax,
                             double percentile = 0.1);

/// Compute affine quantization parameters covering [min, max].
QuantParams choose_affine(std::span<const float> data, DType dt,
                          Calibration cal = Calibration::kMinMax,
                          double percentile = 0.1);

/// Quantize a whole span into integers.
std::vector<std::int32_t> quantize(std::span<const float> data, const QuantParams& qp);

/// Dequantize integers back to floats.
std::vector<float> dequantize(std::span<const std::int32_t> q, const QuantParams& qp);

/// Round-trip ("fake quant") a tensor in place; returns the params used.
QuantParams fake_quantize(Tensor& t, DType dt, Calibration cal = Calibration::kMinMax,
                          double percentile = 0.1);

/// Per-output-channel symmetric fake quantization of a rank-4 OIHW weight
/// tensor (channel = dim 0). Returns one QuantParams per channel.
std::vector<QuantParams> fake_quantize_per_channel(Tensor& weight, DType dt);

/// One output channel of an int8 Conv2D/Dense layer: its weight scale and
/// its bias code at in_scale * scale.
struct Int8Channel {
  double scale = 1.0;
  std::int32_t bias = 0;
};

/// Per-output-channel int8 weights as the integer engine
/// (runtime/session.hpp) stores them, and as the SEU fault model
/// (safety/robustness.hpp) flips them — one definition, so the two cannot
/// drift. The scale is the channel's symmetric min-max scale (amax / 127,
/// 1.0 for an all-zero channel), widened when the bias code
/// (\p bias / (\p in_scale · scale), rounded) would not fit int32 next to
/// the accumulator's reach (k·127·128 for k = channel.size()), TFLite's
/// AdjustWeightsForBiasScale: the bias then stays exact to one LSB of the
/// output instead of wrapping. Each weight's code — w / scale rounded half
/// to even, saturated to [-128, 127] — is written to \p codes
/// (channel.size() of them). A layer without bias passes 0.
Int8Channel quantize_int8_channel(std::span<const float> channel, double bias, double in_scale,
                                  std::int8_t* codes);

/// Worst-case quantization step (scale) for the given data/type — useful as
/// an analytic bound in property tests: |x - fq(x)| <= scale/2 for values
/// inside the clipping range.
double quant_step(std::span<const float> data, DType dt);

/// IEEE-754 half-precision round trip used to model FP16 casting.
float fp16_round_trip(float v);

/// Apply fp16 rounding to every element.
void cast_fp16_inplace(Tensor& t);

}  // namespace vedliot
