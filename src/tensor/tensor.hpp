// Dense row-major float tensor.
//
// This is deliberately a small, concrete value type (C++ Core Guidelines C.10):
// the SNN stack only needs 2-D matrices (batch × features, weights) and 3-D
// spike cubes (time × batch × features); everything else lives in free
// functions in ops.hpp.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace r4ncl {

/// Row-major float tensor with up to three dimensions.
class Tensor {
 public:
  Tensor() = default;

  /// 1-D constructor (vector of length n, zero-initialised).
  explicit Tensor(std::size_t n) : shape_{n}, data_(n, 0.0f) {}
  /// 2-D constructor (rows × cols, zero-initialised).
  Tensor(std::size_t rows, std::size_t cols) : shape_{rows, cols}, data_(rows * cols, 0.0f) {}
  /// 3-D constructor (d0 × d1 × d2, zero-initialised).
  Tensor(std::size_t d0, std::size_t d1, std::size_t d2)
      : shape_{d0, d1, d2}, data_(d0 * d1 * d2, 0.0f) {}

  [[nodiscard]] const std::vector<std::size_t>& shape() const noexcept { return shape_; }
  [[nodiscard]] std::size_t rank() const noexcept { return shape_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  /// Dimension i; throws when out of range.
  [[nodiscard]] std::size_t dim(std::size_t i) const {
    R4NCL_CHECK(i < shape_.size(), "dim " << i << " out of rank " << shape_.size());
    return shape_[i];
  }

  /// Rows/cols accessors for the common 2-D case.
  [[nodiscard]] std::size_t rows() const { return dim(0); }
  [[nodiscard]] std::size_t cols() const {
    R4NCL_CHECK(rank() == 2, "cols() requires a 2-D tensor, rank=" << rank());
    return shape_[1];
  }

  // Element access.  The 2-D/3-D overloads are bounds-checked in debug-style
  // via R4NCL_CHECK only on the rank (per-index checks would dominate the
  // inner loops); kernels use raw spans.
  float& operator()(std::size_t i) { return data_[i]; }
  float operator()(std::size_t i) const { return data_[i]; }
  float& operator()(std::size_t i, std::size_t j) { return data_[i * shape_[1] + j]; }
  float operator()(std::size_t i, std::size_t j) const { return data_[i * shape_[1] + j]; }
  float& operator()(std::size_t i, std::size_t j, std::size_t k) {
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }
  float operator()(std::size_t i, std::size_t j, std::size_t k) const {
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }

  [[nodiscard]] std::span<float> values() noexcept { return data_; }
  [[nodiscard]] std::span<const float> values() const noexcept { return data_; }
  [[nodiscard]] float* raw() noexcept { return data_.data(); }
  [[nodiscard]] const float* raw() const noexcept { return data_.data(); }

  /// Pointer to row i of a 2-D tensor.
  [[nodiscard]] float* row_ptr(std::size_t i) { return data_.data() + i * shape_[1]; }
  [[nodiscard]] const float* row_ptr(std::size_t i) const { return data_.data() + i * shape_[1]; }

  /// Slice [t] of a 3-D tensor viewed as a (d1 × d2) matrix span.
  [[nodiscard]] std::span<float> slab(std::size_t t) {
    return {data_.data() + t * shape_[1] * shape_[2], shape_[1] * shape_[2]};
  }
  [[nodiscard]] std::span<const float> slab(std::size_t t) const {
    return {data_.data() + t * shape_[1] * shape_[2], shape_[1] * shape_[2]};
  }

  /// Sets all elements to v.
  void fill(float v) noexcept {
    for (auto& x : data_) x = v;
  }

  /// Sets all elements to zero.
  void zero() noexcept { fill(0.0f); }

  /// Fills with N(0, stddev²) draws.
  void fill_normal(Rng& rng, float stddev);

  /// True when shapes match exactly.
  [[nodiscard]] bool same_shape(const Tensor& other) const noexcept {
    return shape_ == other.shape_;
  }

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

}  // namespace r4ncl
