// Dense LU factorization with partial pivoting — the refactorization kernel
// of the dense reference simplex's basis.
#pragma once

#include <vector>

#include "reference/matrix.hpp"

namespace a2a {

class LuFactorization {
 public:
  /// Factorizes a square matrix in place. Throws SolverError on (numerical)
  /// singularity.
  explicit LuFactorization(Matrix a);

  [[nodiscard]] std::size_t size() const { return lu_.rows(); }

  /// Solves A x = b.
  void solve(std::vector<double>& b) const;

  /// Solves Aᵀ x = b.
  void solve_transpose(std::vector<double>& b) const;

  /// Computes A⁻¹ into `out` (size n×n).
  void invert(Matrix& out) const;

 private:
  Matrix lu_;
  std::vector<int> perm_;  ///< row permutation: row i of U came from perm_[i].
};

}  // namespace a2a
