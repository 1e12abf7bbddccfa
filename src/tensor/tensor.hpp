#pragma once
/// \file tensor.hpp
/// \brief Dense FP32 tensor used by the reference executor and optimizer.
///
/// Storage is always float; quantized execution is modelled by
/// quantize-dequantize ("fake quant", see quant.hpp), which is how
/// post-training-quantization accuracy is normally evaluated before
/// deploying real integer kernels.

#include <span>
#include <vector>

#include "tensor/shape.hpp"

namespace vedliot {

class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialised tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor with explicit data; data.size() must equal shape.numel().
  Tensor(Shape shape, std::vector<float> data);

  /// Non-owning tensor over external storage (an activation-arena slab);
  /// data.size() must equal shape.numel(). The storage must outlive every
  /// view of it. Copying a view yields another view of the same memory;
  /// use clone() to materialize an owned snapshot.
  static Tensor view(Shape shape, std::span<float> data);

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  // Moves keep the source's heap buffer alive, so the span stays valid for
  // owned tensors and keeps aliasing the arena for views.
  Tensor(Tensor&& other) noexcept = default;
  Tensor& operator=(Tensor&& other) noexcept = default;

  /// True when the tensor aliases external storage instead of owning it.
  bool is_view() const { return storage_.empty() && !data_.empty(); }

  /// Owned deep copy (views included).
  Tensor clone() const;

  const Shape& shape() const { return shape_; }
  std::int64_t numel() const { return shape_.numel(); }

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }

  float& at(std::size_t i);
  float at(std::size_t i) const;

  /// 4-D NCHW element access; throws unless rank-4 and in range.
  float& at4(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w);
  float at4(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) const;

  /// Fill with a constant.
  void fill(float v);

  /// Elementwise min/max over the data (0,0 for empty).
  float min() const;
  float max() const;

  /// Sum of absolute values.
  double abs_sum() const;

  /// Fraction of exact zeros (sparsity after pruning).
  double sparsity() const;

  bool empty() const { return data_.empty(); }

 private:
  Shape shape_;
  std::vector<float> storage_;   ///< empty for views
  std::span<float> data_;        ///< spans storage_ (owned) or external memory
};

/// Stack tensors along the leading (batch) dimension: parts must agree on
/// rank and trailing dims; the result's dim 0 is the sum of the parts'.
/// Rank must be >= 1. Used by the batched-submit path to coalesce
/// per-request inputs into one GEMM-friendly feed.
Tensor stack_batch(std::span<const Tensor> parts);

/// Inverse of stack_batch: split a batched tensor along its leading
/// dimension into owned parts of dim 0 \p widths[i], in order. The widths
/// must be >= 1 and sum to the batch.
std::vector<Tensor> split_batch(const Tensor& batched, std::span<const std::int64_t> widths);

/// Max absolute elementwise difference; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);

/// Root-mean-square error between two tensors; shapes must match.
double rmse(const Tensor& a, const Tensor& b);

}  // namespace vedliot
