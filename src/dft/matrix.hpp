#pragma once
// Dense row-major matrices over double or complex<double>.
//
// The numerical substrate of the mini plane-wave DFT stack. Kept
// deliberately simple: contiguous storage, bounds-checked element access in
// debug paths, no expression templates. Performance-critical products go
// through the blocked kernels in linalg.hpp.

#include <algorithm>
#include <complex>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace ndft::dft {

using Complex = std::complex<double>;

/// Dense row-major matrix.
template <typename T>
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialised.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, T{}) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) {
    NDFT_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const {
    NDFT_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Raw contiguous storage (row-major).
  T* data() noexcept { return data_.data(); }
  const T* data() const noexcept { return data_.data(); }

  /// Pointer to the start of row `r`.
  T* row(std::size_t r) {
    NDFT_ASSERT(r < rows_);
    return data_.data() + r * cols_;
  }
  const T* row(std::size_t r) const {
    NDFT_ASSERT(r < rows_);
    return data_.data() + r * cols_;
  }

  /// Fills every element with `value`.
  void fill(const T& value) {
    std::fill(data_.begin(), data_.end(), value);
  }

  /// Becomes a zero rows x cols matrix, like assigning Matrix(rows, cols),
  /// but keeps the storage when it is large enough: scratch matrices that
  /// are reshaped on every call stop allocating once warm.
  void reset(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, T{});
  }

  /// Returns the transpose (conjugation not applied).
  Matrix<T> transposed() const {
    Matrix<T> result(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) {
        result(c, r) = (*this)(r, c);
      }
    }
    return result;
  }

  /// Storage size in bytes.
  std::size_t bytes() const noexcept { return data_.size() * sizeof(T); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using RealMatrix = Matrix<double>;
using ComplexMatrix = Matrix<Complex>;

}  // namespace ndft::dft
