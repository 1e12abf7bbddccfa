#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace vedliot {

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      storage_(static_cast<std::size_t>(shape_.numel()), 0.0f),
      data_(storage_) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), storage_(std::move(data)), data_(storage_) {
  VEDLIOT_CHECK(static_cast<std::int64_t>(storage_.size()) == shape_.numel(),
                "Tensor data size does not match shape " + shape_.to_string());
}

Tensor Tensor::view(Shape shape, std::span<float> data) {
  Tensor t;
  VEDLIOT_CHECK(static_cast<std::int64_t>(data.size()) == shape.numel(),
                "Tensor view size does not match shape " + shape.to_string());
  t.shape_ = std::move(shape);
  t.data_ = data;
  return t;
}

Tensor::Tensor(const Tensor& other) : shape_(other.shape_), storage_(other.storage_) {
  data_ = other.is_view() ? other.data_ : std::span<float>(storage_);
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  shape_ = other.shape_;
  storage_ = other.storage_;
  data_ = other.is_view() ? other.data_ : std::span<float>(storage_);
  return *this;
}

Tensor Tensor::clone() const {
  return Tensor(shape_, std::vector<float>(data_.begin(), data_.end()));
}

float& Tensor::at(std::size_t i) {
  VEDLIOT_CHECK(i < data_.size(), "Tensor index out of range");
  return data_[i];
}

float Tensor::at(std::size_t i) const {
  VEDLIOT_CHECK(i < data_.size(), "Tensor index out of range");
  return data_[i];
}

float& Tensor::at4(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) {
  const auto& s = shape_;
  VEDLIOT_CHECK(n >= 0 && n < s.n() && c >= 0 && c < s.c() && h >= 0 && h < s.h() && w >= 0 && w < s.w(),
                "Tensor 4-D index out of range for " + s.to_string());
  const std::size_t idx =
      static_cast<std::size_t>(((n * s.c() + c) * s.h() + h) * s.w() + w);
  return data_[idx];
}

float Tensor::at4(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) const {
  return const_cast<Tensor*>(this)->at4(n, c, h, w);
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

float Tensor::min() const {
  if (data_.empty()) return 0.0f;
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  if (data_.empty()) return 0.0f;
  return *std::max_element(data_.begin(), data_.end());
}

double Tensor::abs_sum() const {
  double s = 0.0;
  for (float v : data_) s += std::abs(v);
  return s;
}

double Tensor::sparsity() const {
  if (data_.empty()) return 0.0;
  std::size_t zeros = 0;
  for (float v : data_) {
    if (v == 0.0f) ++zeros;
  }
  return static_cast<double>(zeros) / static_cast<double>(data_.size());
}

Tensor stack_batch(std::span<const Tensor> parts) {
  VEDLIOT_CHECK(!parts.empty(), "stack_batch needs at least one tensor");
  const Shape& first = parts.front().shape();
  VEDLIOT_CHECK(first.rank() >= 1, "stack_batch needs rank >= 1 tensors");
  std::vector<std::int64_t> dims(first.dims().begin(), first.dims().end());
  std::int64_t batch = 0;
  for (const Tensor& p : parts) {
    const Shape& s = p.shape();
    VEDLIOT_CHECK(s.rank() == first.rank(), "stack_batch rank mismatch");
    for (std::size_t d = 1; d < s.rank(); ++d) {
      VEDLIOT_CHECK(s.dim(d) == first.dim(d),
                    "stack_batch trailing-dim mismatch: " + s.to_string() + " vs " +
                        first.to_string());
    }
    batch += s.dim(0);
  }
  dims[0] = batch;
  Tensor out{Shape(dims)};
  std::size_t at = 0;
  for (const Tensor& p : parts) {
    std::copy(p.data().begin(), p.data().end(), out.data().begin() + at);
    at += p.data().size();
  }
  return out;
}

std::vector<Tensor> split_batch(const Tensor& batched, std::span<const std::int64_t> widths) {
  const Shape& s = batched.shape();
  VEDLIOT_CHECK(s.rank() >= 1, "split_batch needs rank >= 1");
  std::int64_t lanes = 0;
  for (const std::int64_t w : widths) {
    VEDLIOT_CHECK(w >= 1, "split_batch widths must be >= 1");
    lanes += w;
  }
  VEDLIOT_CHECK(lanes == s.dim(0), "split_batch widths must sum to the batch");
  std::vector<std::int64_t> dims(s.dims().begin(), s.dims().end());
  const auto lane_elems = static_cast<std::size_t>(s.numel() / lanes);
  std::vector<Tensor> out;
  out.reserve(widths.size());
  std::size_t at = 0;
  for (const std::int64_t w : widths) {
    dims[0] = w;
    const auto part = batched.data().subspan(at, static_cast<std::size_t>(w) * lane_elems);
    out.emplace_back(Shape(dims), std::vector<float>(part.begin(), part.end()));
    at += part.size();
  }
  return out;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  VEDLIOT_CHECK(a.shape() == b.shape(), "max_abs_diff shape mismatch");
  float m = 0.0f;
  auto da = a.data();
  auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) m = std::max(m, std::abs(da[i] - db[i]));
  return m;
}

double rmse(const Tensor& a, const Tensor& b) {
  VEDLIOT_CHECK(a.shape() == b.shape(), "rmse shape mismatch");
  if (a.numel() == 0) return 0.0;
  double s = 0.0;
  auto da = a.data();
  auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    const double d = static_cast<double>(da[i]) - static_cast<double>(db[i]);
    s += d * d;
  }
  return std::sqrt(s / static_cast<double>(da.size()));
}

}  // namespace vedliot
