#include "runtime/kernels.hpp"

#include <algorithm>
#include <cmath>

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

}  // namespace vedliot::runtime_kernels
