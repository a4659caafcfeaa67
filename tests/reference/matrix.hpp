// Dense row-major matrix used by the dense reference simplex's basis kernel.
//
// Deliberately minimal: the simplex implementation needs storage, row
// operations, and matrix-vector products; everything else lives in
// reference/lu.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace a2a {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] double* row(std::size_t r) { return data_.data() + r * cols_; }
  [[nodiscard]] const double* row(std::size_t r) const {
    return data_.data() + r * cols_;
  }

  [[nodiscard]] static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  /// y = A x
  void multiply(const std::vector<double>& x, std::vector<double>& y) const {
    A2A_REQUIRE(x.size() == cols_, "matrix-vector size mismatch");
    y.assign(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
      const double* a = row(r);
      double acc = 0.0;
      for (std::size_t c = 0; c < cols_; ++c) acc += a[c] * x[c];
      y[r] = acc;
    }
  }

  /// y = Aᵀ x
  void multiply_transpose(const std::vector<double>& x,
                          std::vector<double>& y) const {
    A2A_REQUIRE(x.size() == rows_, "matrix-vector size mismatch");
    y.assign(cols_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
      const double* a = row(r);
      const double xr = x[r];
      if (xr == 0.0) continue;
      for (std::size_t c = 0; c < cols_; ++c) y[c] += a[c] * xr;
    }
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace a2a
