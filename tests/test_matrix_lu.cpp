#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.hpp"
#include "graph/topologies.hpp"
#include "lp/simplex.hpp"
#include "lp/sparse.hpp"
#include "lp/sparse_lu.hpp"
#include "mcf/concurrent_flow.hpp"
#include "mcf/path_mcf.hpp"
#include "reference/lu.hpp"
#include "reference/matrix.hpp"

namespace a2a {
namespace {

TEST(Matrix, MultiplyAndTranspose) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(0, 2) = 3;
  m(1, 0) = 4;
  m(1, 1) = 5;
  m(1, 2) = 6;
  std::vector<double> x{1, 1, 1}, y;
  m.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 6);
  EXPECT_DOUBLE_EQ(y[1], 15);
  std::vector<double> z;
  m.multiply_transpose(y, z);
  EXPECT_DOUBLE_EQ(z[0], 6 + 60);
}

TEST(Matrix, Identity) {
  const Matrix id = Matrix::identity(3);
  std::vector<double> x{3, -1, 2}, y;
  id.multiply(x, y);
  EXPECT_EQ(x, y);
}

TEST(Lu, SolvesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  LuFactorization lu(a);
  std::vector<double> b{5, 10};
  lu.solve(b);  // x = (1, 3)
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(Lu, SolveTransposeConsistent) {
  Rng rng(4);
  const std::size_t n = 8;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.next_double() - 0.5;
    a(i, i) += 3.0;  // diagonally dominant -> well conditioned
  }
  LuFactorization lu(a);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.next_double();
  // Compute b = A^T x, then solve A^T y = b; expect y == x.
  std::vector<double> b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b[j] += a(i, j) * x[i];
  }
  lu.solve_transpose(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], x[i], 1e-9);
}

TEST(Lu, InvertProducesInverse) {
  Rng rng(5);
  const std::size_t n = 6;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.next_double() - 0.5;
    a(i, i) += 2.0;
  }
  LuFactorization lu(a);
  Matrix inv;
  lu.invert(inv);
  // a * inv == I.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::size_t k = 0; k < n; ++k) acc += a(i, k) * inv(k, j);
      EXPECT_NEAR(acc, i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  LuFactorization lu(a);
  std::vector<double> b{2, 3};
  lu.solve(b);  // swap: x = (3, 2)
  EXPECT_NEAR(b[0], 3.0, 1e-12);
  EXPECT_NEAR(b[1], 2.0, 1e-12);
}

TEST(Lu, ThrowsOnSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_THROW(LuFactorization lu(a), SolverError);
}

/// Builds a random sparse well-conditioned matrix in CSC form plus its dense
/// mirror: a permuted diagonally-dominant band so both the singleton peel
/// and the bump elimination paths get exercised.
void random_sparse_system(Rng& rng, int n, CscMatrix& csc, Matrix& dense) {
  csc.reset(n);
  dense = Matrix(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    csc.begin_column();
    for (int i = 0; i < n; ++i) {
      const bool diag = i == j;
      const bool band = std::abs(i - j) <= 2 && rng.next_double() < 0.5;
      if (!diag && !band) continue;
      const double v = diag ? 4.0 + rng.next_double() : rng.next_double() - 0.5;
      csc.push(i, v);
      dense(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) = v;
    }
  }
}

TEST(SparseLu, FtranMatchesDenseSolve) {
  Rng rng(11);
  const int n = 24;
  CscMatrix csc;
  Matrix dense;
  random_sparse_system(rng, n, csc, dense);
  std::vector<int> columns(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) columns[static_cast<std::size_t>(j)] = j;
  SparseLu lu;
  lu.factor(csc, columns);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.next_double() - 0.5;
  std::vector<double> x = b, scratch;
  lu.ftran(x, scratch);
  // Check A x == b.
  for (int i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int j = 0; j < n; ++j) {
      acc += dense(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) *
             x[static_cast<std::size_t>(j)];
    }
    EXPECT_NEAR(acc, b[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(SparseLu, BtranMatchesDenseTransposeSolve) {
  Rng rng(12);
  const int n = 24;
  CscMatrix csc;
  Matrix dense;
  random_sparse_system(rng, n, csc, dense);
  std::vector<int> columns(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) columns[static_cast<std::size_t>(j)] = j;
  SparseLu lu;
  lu.factor(csc, columns);
  std::vector<double> c(static_cast<std::size_t>(n));
  for (auto& v : c) v = rng.next_double() - 0.5;
  std::vector<double> y = c, scratch;
  lu.btran(y, scratch);
  // Check A' y == c.
  for (int j = 0; j < n; ++j) {
    double acc = 0.0;
    for (int i = 0; i < n; ++i) {
      acc += dense(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) *
             y[static_cast<std::size_t>(i)];
    }
    EXPECT_NEAR(acc, c[static_cast<std::size_t>(j)], 1e-9);
  }
}

TEST(SparseLu, HandlesPermutedTriangularViaPeel) {
  // A permuted triangular matrix: the singleton peel must order it with
  // zero fill and the solves must still be exact.
  const int n = 5;
  CscMatrix csc(n);
  Matrix dense(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  // Column j has entries at rows {j, (j+1)%n...} arranged so it is a row
  // permutation of an upper-triangular system.
  const int perm[5] = {3, 0, 4, 1, 2};
  for (int j = 0; j < n; ++j) {
    csc.begin_column();
    for (int i = 0; i <= j; ++i) {
      const int r = perm[i];
      const double v = i == j ? 2.0 : 1.0;
      csc.push(r, v);
      dense(static_cast<std::size_t>(r), static_cast<std::size_t>(j)) = v;
    }
  }
  std::vector<int> columns{0, 1, 2, 3, 4};
  SparseLu lu;
  lu.factor(csc, columns);
  std::vector<double> b{1, 2, 3, 4, 5};
  std::vector<double> x = b, scratch;
  lu.ftran(x, scratch);
  for (int i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int j = 0; j < n; ++j) {
      acc += dense(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) *
             x[static_cast<std::size_t>(j)];
    }
    EXPECT_NEAR(acc, b[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(SparseLu, ThrowsOnSingular) {
  CscMatrix csc(2);
  csc.begin_column();
  csc.push(0, 1.0);
  csc.push(1, 2.0);
  csc.begin_column();
  csc.push(0, 2.0);
  csc.push(1, 4.0);
  SparseLu lu;
  EXPECT_THROW(lu.factor(csc, {0, 1}), SolverError);
}

TEST(SparseLu, DenseLinkingColumnStaysOutOfTheFill) {
  // The optimal pMCF basis on GenKautz(12,3): F is basic and dense (one
  // entry per commodity), the path columns are sparse. Wherever F sits in
  // the basis, the bump order must eliminate it late, so its L column never
  // fills the columns factored after it.
  const DiGraph g = make_generalized_kautz(12, 3);
  const PathSet paths = build_disjoint_path_set(g, all_nodes(g));
  int f_var = -1;
  const LpModel model = build_path_mcf_model(g, paths, &f_var);
  SimplexOptions options;
  options.presolve = false;
  const LpSolution sol = solve_lp(model, options);
  ASSERT_TRUE(sol.optimal());
  ASSERT_EQ(sol.basis.variables[static_cast<std::size_t>(f_var)],
            LpVarStatus::kBasic);

  // Structural columns, then the slack identity; the basis lists its basic
  // columns in that order.
  const int m = model.num_rows();
  const int n = model.num_variables();
  CscMatrix a(m);
  for (int j = 0; j < n; ++j) {
    a.begin_column();
    for (const auto& entry : model.column(j)) a.push(entry.row, entry.value);
  }
  for (int r = 0; r < m; ++r) {
    a.begin_column();
    a.push(r, 1.0);
  }
  std::vector<int> basis;
  for (int j = 0; j < n; ++j) {
    if (sol.basis.variables[static_cast<std::size_t>(j)] == LpVarStatus::kBasic) {
      basis.push_back(j);
    }
  }
  for (int r = 0; r < m; ++r) {
    if (sol.basis.rows[static_cast<std::size_t>(r)] == LpVarStatus::kBasic) {
      basis.push_back(n + r);
    }
  }
  ASSERT_EQ(static_cast<int>(basis.size()), m);
  std::size_t basis_nonzeros = 0;
  for (const int col : basis) {
    basis_nonzeros += static_cast<std::size_t>(a.col_end(col) - a.col_begin(col));
  }

  Rng rng(13);
  for (const bool f_first : {true, false}) {
    SCOPED_TRACE(f_first ? "F at basis position 0" : "F at its natural position");
    std::vector<int> columns = basis;
    if (f_first) {
      const auto f = std::find(columns.begin(), columns.end(), f_var);
      std::rotate(columns.begin(), f, f + 1);
    }
    SparseLu lu;
    lu.factor(a, columns);
    EXPECT_LE(lu.fill_nonzeros(), 2 * basis_nonzeros);

    // FTRAN: B x = b, x indexed by basis position.
    std::vector<double> b(static_cast<std::size_t>(m));
    for (auto& v : b) v = rng.next_double() - 0.5;
    std::vector<double> x = b, scratch;
    lu.ftran(x, scratch);
    std::vector<double> bx(static_cast<std::size_t>(m), 0.0);
    for (int k = 0; k < m; ++k) {
      const int col = columns[static_cast<std::size_t>(k)];
      for (int p = a.col_begin(col); p < a.col_end(col); ++p) {
        bx[static_cast<std::size_t>(a.entry_row(p))] +=
            a.entry_value(p) * x[static_cast<std::size_t>(k)];
      }
    }
    for (int r = 0; r < m; ++r) {
      EXPECT_NEAR(bx[static_cast<std::size_t>(r)], b[static_cast<std::size_t>(r)], 1e-9);
    }

    // BTRAN: B' y = c, c indexed by basis position, y by row.
    std::vector<double> c(static_cast<std::size_t>(m));
    for (auto& v : c) v = rng.next_double() - 0.5;
    std::vector<double> y = c;
    lu.btran(y, scratch);
    for (int k = 0; k < m; ++k) {
      const int col = columns[static_cast<std::size_t>(k)];
      double acc = 0.0;
      for (int p = a.col_begin(col); p < a.col_end(col); ++p) {
        acc += a.entry_value(p) * y[static_cast<std::size_t>(a.entry_row(p))];
      }
      EXPECT_NEAR(acc, c[static_cast<std::size_t>(k)], 1e-9);
    }
  }
}

}  // namespace
}  // namespace a2a
