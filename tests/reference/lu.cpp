#include "reference/lu.hpp"

#include <cmath>

#include "common/error.hpp"

namespace a2a {

LuFactorization::LuFactorization(Matrix a) : lu_(std::move(a)) {
  A2A_REQUIRE(lu_.rows() == lu_.cols(), "LU of a non-square matrix");
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = static_cast<int>(i);
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: largest |entry| in column k at or below the diagonal.
    std::size_t pivot = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(lu_(i, k));
      if (v > best) {
        best = v;
        pivot = i;
      }
    }
    if (best < 1e-12) {
      throw SolverError(detail::concat(
          "singular basis matrix in dense LU factorization (elimination "
          "column ", k, " of ", n, ", best pivot magnitude ", best, ")"));
    }
    if (pivot != k) {
      std::swap(perm_[k], perm_[pivot]);
      double* rk = lu_.row(k);
      double* rp = lu_.row(pivot);
      for (std::size_t c = 0; c < n; ++c) std::swap(rk[c], rp[c]);
    }
    const double dk = lu_(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double factor = lu_(i, k) / dk;
      if (factor == 0.0) continue;
      lu_(i, k) = factor;
      double* ri = lu_.row(i);
      const double* rk = lu_.row(k);
      for (std::size_t c = k + 1; c < n; ++c) ri[c] -= factor * rk[c];
    }
  }
}

void LuFactorization::solve(std::vector<double>& b) const {
  const std::size_t n = size();
  A2A_REQUIRE(b.size() == n, "LU solve size mismatch");
  // Apply permutation.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = b[static_cast<std::size_t>(perm_[i])];
  // Forward substitution with unit-lower L.
  for (std::size_t i = 1; i < n; ++i) {
    const double* ri = lu_.row(i);
    double acc = y[i];
    for (std::size_t c = 0; c < i; ++c) acc -= ri[c] * y[c];
    y[i] = acc;
  }
  // Back substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    const double* ri = lu_.row(ii);
    double acc = y[ii];
    for (std::size_t c = ii + 1; c < n; ++c) acc -= ri[c] * y[c];
    y[ii] = acc / ri[ii];
  }
  b = std::move(y);
}

void LuFactorization::solve_transpose(std::vector<double>& b) const {
  const std::size_t n = size();
  A2A_REQUIRE(b.size() == n, "LU solve size mismatch");
  // Aᵀ x = b with PA = LU  =>  x = Pᵀ (L⁻ᵀ (U⁻ᵀ b)).
  std::vector<double> y = b;
  // Solve Uᵀ z = b (forward, Uᵀ lower-triangular).
  for (std::size_t i = 0; i < n; ++i) {
    double acc = y[i];
    for (std::size_t r = 0; r < i; ++r) acc -= lu_(r, i) * y[r];
    y[i] = acc / lu_(i, i);
  }
  // Solve Lᵀ w = z (backward, unit diagonal).
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t r = ii + 1; r < n; ++r) acc -= lu_(r, ii) * y[r];
    y[ii] = acc;
  }
  // Undo permutation: x[perm_[i]] = w[i].
  for (std::size_t i = 0; i < n; ++i) b[static_cast<std::size_t>(perm_[i])] = y[i];
}

void LuFactorization::invert(Matrix& out) const {
  const std::size_t n = size();
  out = Matrix(n, n);
  std::vector<double> e(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    std::fill(e.begin(), e.end(), 0.0);
    e[c] = 1.0;
    solve(e);
    for (std::size_t r = 0; r < n; ++r) out(r, c) = e[r];
  }
}

}  // namespace a2a
