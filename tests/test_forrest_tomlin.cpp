// Forrest–Tomlin factor-update tests: chains of SparseLu::update() against
// fresh refactorizations, the instability refusal path, the solver-level
// refactorization triggers, and FT against the dense reference on the
// Fig. 7 LPs.
#include "lp/sparse_lu.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hpp"
#include "graph/algorithms.hpp"
#include "graph/topologies.hpp"
#include "lp/simplex.hpp"
#include "lp_same_solve.hpp"
#include "mcf/concurrent_flow.hpp"
#include "mcf/timestepped.hpp"
#include "reference/dense_simplex.hpp"

namespace a2a {
namespace {

/// Builds a well-conditioned n x n basis (diagonally dominant dense-ish
/// columns) plus `extra` replacement columns anchored on random rows, all in
/// one CSC container (the shape SimplexCore feeds SparseLu).
struct UpdateFixture {
  CscMatrix a;
  std::vector<int> basis;
  std::vector<int> replacements;

  UpdateFixture(Rng& rng, int n, int extra) : a(n) {
    basis.resize(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      basis[static_cast<std::size_t>(j)] = a.begin_column();
      for (int r = 0; r < n; ++r) {
        a.push(r, (r == j ? 4.0 : 0.0) + rng.next_double() - 0.5);
      }
    }
    for (int e = 0; e < extra; ++e) {
      replacements.push_back(a.begin_column());
      const int anchor = rng.next_int(0, n);
      for (int r = 0; r < n; ++r) {
        a.push(r, (r == anchor ? 4.0 : 0.0) + rng.next_double() - 0.5);
      }
    }
  }
};

/// Max |B x - b| over a random b solved through `lu` (ftran), plus the
/// transposed residual through btran — the ground truth the factors must
/// reproduce regardless of how many updates they absorbed.
double worst_residual(const SparseLu& lu, const CscMatrix& a,
                      const std::vector<int>& basis, Rng& rng) {
  const int n = lu.size();
  std::vector<double> b(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) b[static_cast<std::size_t>(i)] = rng.next_double() - 0.5;
  std::vector<double> scratch;
  std::vector<double> x = b;
  lu.ftran(x, scratch);
  double worst = 0.0;
  std::vector<double> resid = b;
  for (int j = 0; j < n; ++j) {
    const int col = basis[static_cast<std::size_t>(j)];
    for (int k = a.col_begin(col); k < a.col_end(col); ++k) {
      resid[static_cast<std::size_t>(a.entry_row(k))] -=
          a.entry_value(k) * x[static_cast<std::size_t>(j)];
    }
  }
  for (int i = 0; i < n; ++i) worst = std::max(worst, std::abs(resid[static_cast<std::size_t>(i)]));
  std::vector<double> y = b;
  lu.btran(y, scratch);
  for (int j = 0; j < n; ++j) {
    double rj = b[static_cast<std::size_t>(j)];
    const int col = basis[static_cast<std::size_t>(j)];
    for (int k = a.col_begin(col); k < a.col_end(col); ++k) {
      rj -= a.entry_value(k) * y[static_cast<std::size_t>(a.entry_row(k))];
    }
    worst = std::max(worst, std::abs(rj));
  }
  return worst;
}

TEST(ForrestTomlin, LongUpdateChainMatchesFreshRefactorization) {
  Rng rng(20240715);
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 24;
    UpdateFixture fx(rng, n, 80);
    SparseLu lu;
    lu.factor(fx.a, fx.basis, /*prepare_updates=*/true);
    std::vector<double> alpha(static_cast<std::size_t>(n));
    std::vector<double> scratch;
    std::vector<double> spike;
    int applied = 0;
    for (const int nc : fx.replacements) {
      const int pos = rng.next_int(0, n);
      std::fill(alpha.begin(), alpha.end(), 0.0);
      for (int k = fx.a.col_begin(nc); k < fx.a.col_end(nc); ++k) {
        alpha[static_cast<std::size_t>(fx.a.entry_row(k))] += fx.a.entry_value(k);
      }
      lu.ftran(alpha, scratch, &spike);
      if (!lu.update(pos, spike, 1e-9, 1e-12)) continue;
      fx.basis[static_cast<std::size_t>(pos)] = nc;
      ++applied;
      // The updated factors and a from-scratch factorization of the SAME
      // column set must agree on FTRAN and BTRAN against the real matrix.
      // The bar is loose enough for the conditioning that ~80 random column
      // replacements legitimately accumulate, tight enough to catch any
      // structural bug (which blows residuals past 1e-1 within a few
      // updates).
      EXPECT_LT(worst_residual(lu, fx.a, fx.basis, rng), 5e-6);
      SparseLu fresh;
      fresh.factor(fx.a, fx.basis);
      EXPECT_LT(worst_residual(fresh, fx.a, fx.basis, rng), 5e-6);
    }
    EXPECT_EQ(lu.updates(), applied);
    EXPECT_GT(applied, 60) << "well-conditioned replacements mostly accepted";
  }
}

TEST(ForrestTomlin, RefusesUnstableReplacementAndKeepsOldFactors) {
  Rng rng(7);
  const int n = 12;
  UpdateFixture fx(rng, n, 0);
  SparseLu lu;
  lu.factor(fx.a, fx.basis, /*prepare_updates=*/true);
  // Replacing position 3 with (a copy of) the basis column at position 5
  // makes the basis exactly singular: the transformed spike diagonal is
  // zero and the update must refuse.
  std::vector<double> alpha(static_cast<std::size_t>(n), 0.0);
  const int dup = fx.basis[5];
  for (int k = fx.a.col_begin(dup); k < fx.a.col_end(dup); ++k) {
    alpha[static_cast<std::size_t>(fx.a.entry_row(k))] += fx.a.entry_value(k);
  }
  std::vector<double> scratch;
  std::vector<double> spike;
  lu.ftran(alpha, scratch, &spike);
  EXPECT_FALSE(lu.update(3, spike, 1e-9, 1e-12));
  EXPECT_EQ(lu.updates(), 0);
  // Refusal is transactional: the factors still solve the OLD basis.
  EXPECT_LT(worst_residual(lu, fx.a, fx.basis, rng), 1e-10);
}

TEST(ForrestTomlin, UpdateRequiresPreparation) {
  Rng rng(3);
  const int n = 6;
  UpdateFixture fx(rng, n, 1);
  SparseLu lu;
  lu.factor(fx.a, fx.basis, /*prepare_updates=*/false);
  std::vector<double> spike(static_cast<std::size_t>(n), 0.0);
  EXPECT_THROW((void)lu.update(0, spike, 1e-9, 1e-12), Error);
}

// ---- solver-level: FT vs the dense reference and refactorization triggers --

SimplexOptions no_presolve() {
  SimplexOptions o;
  o.presolve = false;  // isolate the factor-update machinery
  return o;
}

TEST(ForrestTomlin, FtMatchesDenseReferenceOnFig7Lps) {
  const DiGraph gk = make_generalized_kautz(10, 4);
  const DiGraph hc = make_hypercube(3);
  const std::vector<LpModel> models = {
      build_link_mcf_model(gk, TerminalPairs(all_nodes(gk))),
      build_tsmcf_model(hc, diameter(hc) + 1, TerminalPairs(all_nodes(hc))),
  };
  for (const LpModel& model : models) {
    const LpSolution dense = solve_lp_dense(model);
    const LpSolution ft = solve_lp(model, no_presolve());
    ASSERT_TRUE(dense.optimal());
    ASSERT_TRUE(ft.optimal());
    EXPECT_NEAR(dense.objective, ft.objective,
                1e-7 * std::max(1.0, std::abs(dense.objective)));
  }
}

TEST(ForrestTomlin, ForcedRefactorizationTriggersStillSolve) {
  const DiGraph g = make_generalized_kautz(8, 4);
  const LpModel model = build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
  const double reference = solve_lp_dense(model).objective;
  // Instability trigger: a diag tolerance so strict every update is refused
  // and the solver refactorizes on each pivot.
  SimplexOptions paranoid = no_presolve();
  paranoid.ft_diag_tol = 0.99;
  const LpSolution s1 = solve_lp(model, paranoid);
  ASSERT_TRUE(s1.optimal());
  EXPECT_NEAR(s1.objective, reference, 1e-7);
  // Fill-growth trigger pinned to fire almost immediately.
  SimplexOptions tight_fill = no_presolve();
  tight_fill.refactor_fill_growth = 1.001;
  const LpSolution s2 = solve_lp(model, tight_fill);
  ASSERT_TRUE(s2.optimal());
  EXPECT_NEAR(s2.objective, reference, 1e-7);
  // Update-count backstop of one: refactorize after every single update.
  SimplexOptions one = no_presolve();
  one.ft_update_limit = 1;
  const LpSolution s3 = solve_lp(model, one);
  ASSERT_TRUE(s3.optimal());
  EXPECT_NEAR(s3.objective, reference, 1e-7);
}

TEST(ForrestTomlin, WarmResolveMatchesCold) {
  // The Fig. 9 shape: optimal basis, then capacities collapse under it.
  // The old basis is then primal infeasible, so the warm re-solve rejects
  // it and is the cold solve of the perturbed instance, bit for bit.
  const DiGraph base = make_generalized_kautz(10, 4);
  const auto nodes = all_nodes(base);
  const SimplexOptions o = no_presolve();
  const LpSolution first =
      solve_lp(build_link_mcf_model(base, TerminalPairs(nodes)), o);
  ASSERT_TRUE(first.optimal());
  const LpBasis warm = first.basis;
  DiGraph g = base;
  Rng rng(99);
  for (int hit = 0; hit < 3; ++hit) {
    g.set_capacity(static_cast<EdgeId>(rng.next_below(
                       static_cast<std::uint64_t>(g.num_edges()))),
                   1e-6);
  }
  const LpModel perturbed = build_link_mcf_model(g, TerminalPairs(nodes));
  const LpSolution cold = solve_lp(perturbed, o);
  const LpSolution again = solve_lp(perturbed, o, &warm);
  ASSERT_TRUE(cold.optimal());
  ASSERT_TRUE(again.optimal());
  EXPECT_FALSE(again.warm_started);
  EXPECT_TRUE(same_solve(again, cold));
}

}  // namespace
}  // namespace a2a
