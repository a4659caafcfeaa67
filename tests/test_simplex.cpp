#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include "lp_same_solve.hpp"

#include "common/error.hpp"
#include "common/random.hpp"
#include "lp/simplex_core.hpp"
#include "graph/algorithms.hpp"
#include "graph/topologies.hpp"
#include "mcf/concurrent_flow.hpp"
#include "mcf/timestepped.hpp"
#include "obs/metrics.hpp"
#include "reference/dense_simplex.hpp"

namespace a2a {
namespace {

/// Solves with both backends and checks they agree on status and objective
/// (the acceptance bar of the sparse-solver rewrite).
LpSolution cross_check(const LpModel& model) {
  const LpSolution sparse = solve_lp(model);
  const LpSolution dense = solve_lp_dense(model);
  EXPECT_EQ(sparse.status, dense.status);
  if (sparse.optimal() && dense.optimal()) {
    EXPECT_NEAR(sparse.objective, dense.objective,
                1e-6 * std::max(1.0, std::abs(dense.objective)));
  }
  return sparse;
}

TEST(Simplex, SolvesTextbookMaximization) {
  // max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18  -> 36 at (2, 6).
  LpModel m(Sense::kMaximize);
  const int x = m.add_variable(0, kInfinity, 3);
  const int y = m.add_variable(0, kInfinity, 5);
  m.add_coefficient(m.add_row(RowType::kLessEqual, 4), x, 1);
  m.add_coefficient(m.add_row(RowType::kLessEqual, 12), y, 2);
  const int r = m.add_row(RowType::kLessEqual, 18);
  m.add_coefficient(r, x, 3);
  m.add_coefficient(r, y, 2);
  const LpSolution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 36.0, 1e-7);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 2.0, 1e-7);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(y)], 6.0, 1e-7);
}

TEST(Simplex, SolvesEqualityAndGreaterEqual) {
  // min x + 2y  s.t.  x + y = 3, x - y >= 1, x,y >= 0  -> (3,0) obj 3? Check:
  // x+y=3, x-y>=1 -> x>=2. min x+2y = min x + 2(3-x) = 6 - x -> x=3,y=0: obj 3.
  LpModel m(Sense::kMinimize);
  const int x = m.add_variable(0, kInfinity, 1);
  const int y = m.add_variable(0, kInfinity, 2);
  int r = m.add_row(RowType::kEqual, 3);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 1);
  r = m.add_row(RowType::kGreaterEqual, 1);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, -1);
  const LpSolution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 3.0, 1e-7);
}

TEST(Simplex, DetectsInfeasible) {
  LpModel m(Sense::kMinimize);
  const int x = m.add_variable(0, kInfinity, 1);
  m.add_coefficient(m.add_row(RowType::kGreaterEqual, 5), x, 1);
  m.add_coefficient(m.add_row(RowType::kLessEqual, 3), x, 1);
  EXPECT_EQ(solve_lp(m).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LpModel m(Sense::kMaximize);
  const int x = m.add_variable(0, kInfinity, 1);
  const int y = m.add_variable(0, kInfinity, 0);
  const int r = m.add_row(RowType::kLessEqual, 1);
  m.add_coefficient(r, y, 1);
  (void)x;
  EXPECT_EQ(solve_lp(m).status, LpStatus::kUnbounded);
}

TEST(Simplex, RespectsVariableUpperBounds) {
  // max x + y with x <= 2 (bound), x + y <= 3.
  LpModel m(Sense::kMaximize);
  const int x = m.add_variable(0, 2, 1);
  const int y = m.add_variable(0, kInfinity, 1);
  const int r = m.add_row(RowType::kLessEqual, 3);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 1);
  const LpSolution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 3.0, 1e-7);
  EXPECT_LE(s.values[static_cast<std::size_t>(x)], 2.0 + 1e-9);
}

TEST(Simplex, BoundFlipPath) {
  // All variables boxed; optimum at upper bounds.
  LpModel m(Sense::kMaximize);
  const int n = 12;
  int row = -1;
  for (int i = 0; i < n; ++i) {
    const int v = m.add_variable(0, 1, 1.0 + 0.01 * i);
    if (row < 0) row = m.add_row(RowType::kLessEqual, 100.0);
    m.add_coefficient(row, v, 1.0);
  }
  const LpSolution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(s.values[static_cast<std::size_t>(i)], 1.0, 1e-7);
  }
}

TEST(Simplex, FixedVariableViaEqualBounds) {
  LpModel m(Sense::kMaximize);
  const int x = m.add_variable(2, 2, 1);  // fixed at 2
  const int y = m.add_variable(0, kInfinity, 1);
  const int r = m.add_row(RowType::kLessEqual, 5);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 1);
  const LpSolution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 2.0, 1e-9);
  EXPECT_NEAR(s.objective, 5.0, 1e-7);
}

TEST(Simplex, NonZeroLowerBounds) {
  // min x + y, x >= 1.5, y >= 2.5, x + y >= 5 -> obj 5.
  LpModel m(Sense::kMinimize);
  const int x = m.add_variable(1.5, kInfinity, 1);
  const int y = m.add_variable(2.5, kInfinity, 1);
  const int r = m.add_row(RowType::kGreaterEqual, 5);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 1);
  const LpSolution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 5.0, 1e-7);
}

TEST(Simplex, DegenerateTransportationProblem) {
  // Balanced 3x3 transportation problem with known optimum.
  // supply {10,10,10}, demand {10,10,10}, cost c[i][j] = |i-j|+1.
  LpModel m(Sense::kMinimize);
  int var[3][3];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      var[i][j] = m.add_variable(0, kInfinity, std::abs(i - j) + 1);
    }
  }
  for (int i = 0; i < 3; ++i) {
    const int r = m.add_row(RowType::kEqual, 10);
    for (int j = 0; j < 3; ++j) m.add_coefficient(r, var[i][j], 1);
  }
  for (int j = 0; j < 3; ++j) {
    const int r = m.add_row(RowType::kEqual, 10);
    for (int i = 0; i < 3; ++i) m.add_coefficient(r, var[i][j], 1);
  }
  const LpSolution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 30.0, 1e-6);  // all diagonal at cost 1
}

/// Randomized property sweep: feasibility and weak-duality sanity on random
/// packing LPs (max c'x, Ax <= b, x >= 0 with non-negative data): the
/// optimum must satisfy every constraint and beat every single-variable
/// feasible point.
class SimplexRandomPacking : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomPacking, OptimumFeasibleAndDominant) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 5 + static_cast<int>(rng.next_below(10));
  const int rows = 3 + static_cast<int>(rng.next_below(8));
  std::vector<double> c(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) c[static_cast<std::size_t>(j)] = 0.1 + rng.next_double();
  std::vector<std::vector<double>> a(static_cast<std::size_t>(rows),
                                     std::vector<double>(static_cast<std::size_t>(n)));
  std::vector<double> b(static_cast<std::size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    b[static_cast<std::size_t>(i)] = 1.0 + rng.next_double() * 5;
    for (int j = 0; j < n; ++j) {
      a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = rng.next_double();
    }
  }
  LpModel model(Sense::kMaximize);
  for (int j = 0; j < n; ++j) model.add_variable(0, kInfinity, c[static_cast<std::size_t>(j)]);
  for (int i = 0; i < rows; ++i) {
    const int r = model.add_row(RowType::kLessEqual, b[static_cast<std::size_t>(i)]);
    for (int j = 0; j < n; ++j) {
      model.add_coefficient(r, j, a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
    }
  }
  for (int j = 0; j < n; ++j) {
    model.add_coefficient(model.add_row(RowType::kLessEqual, 10.0), j, 1.0);
  }
  const LpSolution s = solve_lp(model);
  ASSERT_TRUE(s.optimal());
  // Feasibility.
  for (int i = 0; i < rows; ++i) {
    double lhs = 0;
    for (int j = 0; j < n; ++j) {
      lhs += a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] *
             s.values[static_cast<std::size_t>(j)];
    }
    EXPECT_LE(lhs, b[static_cast<std::size_t>(i)] + 1e-6);
  }
  // Dominance over single-variable feasible points.
  for (int j = 0; j < n; ++j) {
    double max_x = 10.0;
    for (int i = 0; i < rows; ++i) {
      const double aij = a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      if (aij > 1e-12) max_x = std::min(max_x, b[static_cast<std::size_t>(i)] / aij);
    }
    EXPECT_GE(s.objective, c[static_cast<std::size_t>(j)] * max_x - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomPacking, ::testing::Range(1, 17));

// ---- sparse vs dense cross-checks -----------------------------------------

TEST(SimplexCrossCheck, TextbookFixtures) {
  {
    LpModel m(Sense::kMaximize);
    const int x = m.add_variable(0, kInfinity, 3);
    const int y = m.add_variable(0, kInfinity, 5);
    m.add_coefficient(m.add_row(RowType::kLessEqual, 4), x, 1);
    m.add_coefficient(m.add_row(RowType::kLessEqual, 12), y, 2);
    const int r = m.add_row(RowType::kLessEqual, 18);
    m.add_coefficient(r, x, 3);
    m.add_coefficient(r, y, 2);
    cross_check(m);
  }
  {
    LpModel m(Sense::kMinimize);
    const int x = m.add_variable(0, kInfinity, 1);
    const int y = m.add_variable(0, kInfinity, 2);
    int r = m.add_row(RowType::kEqual, 3);
    m.add_coefficient(r, x, 1);
    m.add_coefficient(r, y, 1);
    r = m.add_row(RowType::kGreaterEqual, 1);
    m.add_coefficient(r, x, 1);
    m.add_coefficient(r, y, -1);
    cross_check(m);
  }
  {
    // Infeasible.
    LpModel m(Sense::kMinimize);
    const int x = m.add_variable(0, kInfinity, 1);
    m.add_coefficient(m.add_row(RowType::kGreaterEqual, 5), x, 1);
    m.add_coefficient(m.add_row(RowType::kLessEqual, 3), x, 1);
    cross_check(m);
  }
}

/// Network LPs are the production workload: the full link-MCF models on the
/// repository's topologies must agree between the two solvers on every
/// fixture.
class SimplexCrossCheckNetwork : public ::testing::TestWithParam<int> {};

TEST_P(SimplexCrossCheckNetwork, LinkMcfModelsAgree) {
  DiGraph g;
  switch (GetParam()) {
    case 0: g = make_ring(5); break;
    case 1: g = make_hypercube(3); break;
    case 2: g = make_complete_bipartite(3, 3); break;
    case 3: g = make_generalized_kautz(9, 2); break;
    case 4: g = make_torus({3, 3}); break;
    default: {
      Rng rng(77);
      g = make_random_regular(10, 3, rng);
      break;
    }
  }
  cross_check(build_link_mcf_model(g, TerminalPairs(all_nodes(g))));
}

INSTANTIATE_TEST_SUITE_P(Topologies, SimplexCrossCheckNetwork,
                         ::testing::Range(0, 6));

TEST(SimplexCrossCheck, TsMcfModelAgrees) {
  const DiGraph g = make_ring(5);
  cross_check(
      build_tsmcf_model(g, diameter(g) + 1, TerminalPairs(all_nodes(g))));
}

// ---- warm starts ----------------------------------------------------------

TEST(SimplexWarmStart, ResolveFromOptimalBasisTakesNoPivots) {
  const DiGraph g = make_hypercube(3);
  const LpModel model = build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
  const LpSolution cold = solve_lp(model);
  ASSERT_TRUE(cold.optimal());
  const LpSolution warm = solve_lp(model, {}, &cold.basis);
  ASSERT_TRUE(warm.optimal());
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.iterations, 0);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
}

/// Property sweep: on randomized network LPs, a warm start from the optimal
/// basis of a capacity-perturbed sibling must reach the same optimum as a
/// cold solve — and a warm start never changes the answer, only the path.
class SimplexWarmStartRandom : public ::testing::TestWithParam<int> {};

TEST_P(SimplexWarmStartRandom, PerturbedResolveMatchesCold) {
  Rng rng(static_cast<std::uint64_t>(100 + GetParam()));
  const DiGraph base = make_random_regular(8, 3, rng);
  const LpModel base_model =
      build_link_mcf_model(base, TerminalPairs(all_nodes(base)));
  const LpSolution first = solve_lp(base_model);
  ASSERT_TRUE(first.optimal());

  // Shrink a few capacities (the Fig. 9 move): same LP shape, shifted rhs.
  DiGraph g = base;
  for (int k = 0; k < 3; ++k) {
    const EdgeId e = static_cast<EdgeId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_edges())));
    g.set_capacity(e, 0.5);
  }
  const LpModel perturbed =
      build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
  const LpSolution cold = solve_lp(perturbed);
  const LpSolution warm = solve_lp(perturbed, {}, &first.basis);
  ASSERT_TRUE(cold.optimal());
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-6 * std::max(1.0, std::abs(cold.objective)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexWarmStartRandom, ::testing::Range(0, 8));

TEST(SimplexWarmStart, IncompatibleBasisFallsBackToCold) {
  // Basis from a different-shaped LP must be ignored, not crash the solve.
  LpModel small(Sense::kMaximize);
  const int x = small.add_variable(0, kInfinity, 1);
  const int r = small.add_row(RowType::kLessEqual, 2);
  small.add_coefficient(r, x, 1);
  const LpSolution small_sol = solve_lp(small);
  ASSERT_TRUE(small_sol.optimal());

  const DiGraph g = make_ring(4);
  const LpModel big = build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
  const LpSolution sol = solve_lp(big, {}, &small_sol.basis);
  ASSERT_TRUE(sol.optimal());
  EXPECT_FALSE(sol.warm_started);
  EXPECT_NEAR(sol.objective, solve_lp(big).objective, 1e-9);
}

// ---- degenerate and bound-flip pivot paths --------------------------------

TEST(SimplexDegenerate, AssignmentProblemHeavilyDegenerate) {
  // 4x4 assignment relaxation: every vertex is massively degenerate; the LP
  // optimum equals the min-cost matching (here the diagonal, cost 4).
  LpModel m(Sense::kMinimize);
  int var[4][4];
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      var[i][j] = m.add_variable(0, 1, i == j ? 1.0 : 10.0 + i + j);
    }
  }
  for (int i = 0; i < 4; ++i) {
    const int r = m.add_row(RowType::kEqual, 1);
    for (int j = 0; j < 4; ++j) m.add_coefficient(r, var[i][j], 1);
  }
  for (int j = 0; j < 4; ++j) {
    const int r = m.add_row(RowType::kEqual, 1);
    for (int i = 0; i < 4; ++i) m.add_coefficient(r, var[i][j], 1);
  }
  const LpSolution s = cross_check(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 4.0, 1e-6);
}

TEST(SimplexDegenerate, TiedRatioTestStillTerminates) {
  // All rows give identical ratios: the tie-break and the Bland fallback
  // must cope without cycling.
  LpModel m(Sense::kMaximize);
  const int x = m.add_variable(0, kInfinity, 1);
  const int y = m.add_variable(0, kInfinity, 1);
  for (int i = 0; i < 6; ++i) {
    const int r = m.add_row(RowType::kLessEqual, 2);
    m.add_coefficient(r, x, 1);
    m.add_coefficient(r, y, 1);
  }
  const LpSolution s = cross_check(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 2.0, 1e-7);
}

TEST(SimplexBoundFlip, BoxedNetworkOptimumViaFlipsOnly) {
  // tsMCF-style boxed variables (all f <= 1): the optimum sets most
  // variables at bounds, exercising the flip path of the ratio test.
  LpModel m(Sense::kMaximize);
  const int n = 20;
  std::vector<int> vars;
  const int cap = m.add_row(RowType::kLessEqual, 15.0);
  for (int i = 0; i < n; ++i) {
    const int v = m.add_variable(0, 1, 1.0 + 0.001 * i);
    m.add_coefficient(cap, v, i % 3 == 0 ? 0.5 : 1.0);
    vars.push_back(v);
  }
  const LpSolution s = cross_check(m);
  ASSERT_TRUE(s.optimal());
  for (const int v : vars) {
    EXPECT_LE(s.values[static_cast<std::size_t>(v)], 1.0 + 1e-9);
    EXPECT_GE(s.values[static_cast<std::size_t>(v)], -1e-9);
  }
}

/// Beale's classic cycling LP: Dantzig pricing with naive tie-breaking
/// cycles forever on it.
LpModel beale_lp() {
  LpModel m(Sense::kMinimize);
  const int x1 = m.add_variable(0, kInfinity, -0.75);
  const int x2 = m.add_variable(0, kInfinity, 150.0);
  const int x3 = m.add_variable(0, kInfinity, -0.02);
  const int x4 = m.add_variable(0, kInfinity, 6.0);
  int r = m.add_row(RowType::kLessEqual, 0);
  m.add_coefficient(r, x1, 0.25);
  m.add_coefficient(r, x2, -60.0);
  m.add_coefficient(r, x3, -0.04);
  m.add_coefficient(r, x4, 9.0);
  r = m.add_row(RowType::kLessEqual, 0);
  m.add_coefficient(r, x1, 0.5);
  m.add_coefficient(r, x2, -90.0);
  m.add_coefficient(r, x3, -0.02);
  m.add_coefficient(r, x4, 3.0);
  m.add_coefficient(m.add_row(RowType::kLessEqual, 1), x3, 1.0);
  return m;
}

TEST(SimplexCycling, BealeExampleTerminatesAtOptimum) {
  // The solver's anti-cycling machinery (degenerate-streak Bland fallback)
  // must terminate at the known optimum z* = -1/20 at x = (1/25, 0, 1, 0).
  const LpSolution s = cross_check(beale_lp());
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -0.05, 1e-7);
  EXPECT_NEAR(s.values[0], 0.04, 1e-7);
  EXPECT_NEAR(s.values[2], 1.0, 1e-7);
}

TEST(SimplexCycling, PresolvedBealeBasisIsOptimalWithAndWithoutPresolve) {
  // Presolve turns Beale's singleton row x3 <= 1 into a bound, and x3 sits
  // on it at the optimum. The exported basis must make x3 basic and row 3
  // nonbasic: the model has no upper bound on x3 to hold it at 1.
  const LpModel beale = beale_lp();
  const LpSolution first = solve_lp(beale);
  ASSERT_TRUE(first.optimal());
  EXPECT_EQ(first.basis.variables[2], LpVarStatus::kBasic);
  EXPECT_EQ(first.basis.rows[2], LpVarStatus::kAtLower);
  SimplexOptions no_presolve;
  no_presolve.presolve = false;
  const lp_detail::SimplexCore probe(beale, no_presolve, &first.basis);
  ASSERT_TRUE(probe.warm_started());
  for (const SimplexOptions& options : {SimplexOptions{}, no_presolve}) {
    SCOPED_TRACE(options.presolve ? "presolve on" : "presolve off");
    const LpSolution again = solve_lp(beale, options, &first.basis);
    ASSERT_TRUE(again.optimal());
    EXPECT_TRUE(again.warm_started);
    EXPECT_EQ(again.iterations, 0);
    EXPECT_NEAR(again.objective, first.objective, 1e-9);
  }
}

// ---- warm re-solves of perturbed instances ----------------------------------

/// After tightening capacities under an optimal basis (the Fig. 9 move), a
/// warm re-solve must reach the same optimum a cold solve finds, on every
/// seed.
class SimplexWarmCapacitySweep : public ::testing::TestWithParam<int> {};

TEST_P(SimplexWarmCapacitySweep, TightenedResolveMatchesCold) {
  Rng rng(static_cast<std::uint64_t>(500 + GetParam()));
  const DiGraph base = make_random_regular(8, 3, rng);
  const LpModel base_model =
      build_link_mcf_model(base, TerminalPairs(all_nodes(base)));
  const LpSolution first = solve_lp(base_model);
  ASSERT_TRUE(first.optimal());

  DiGraph g = base;
  const int hits = 1 + static_cast<int>(rng.next_below(4));
  for (int k = 0; k < hits; ++k) {
    const EdgeId e = static_cast<EdgeId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_edges())));
    g.set_capacity(e, 0.25 + 0.5 * rng.next_double());
  }
  const LpModel perturbed = build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
  const LpSolution cold = solve_lp(perturbed);
  const LpSolution warm = solve_lp(perturbed, {}, &first.basis);
  ASSERT_TRUE(cold.optimal());
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-6 * std::max(1.0, std::abs(cold.objective)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexWarmCapacitySweep, ::testing::Range(0, 10));

TEST(SimplexWarmStart, BoundFlipHeavyBoxes) {
  // Boxed LP whose re-solve shrinks the shared capacity under the old
  // optimum, which saturated 18 of 24 boxed columns. The old basis is then
  // primal infeasible, so the warm solve rejects it and is the cold solve.
  const int n = 24;
  LpModel m(Sense::kMaximize);
  const int cap = m.add_row(RowType::kLessEqual, 18.0);
  for (int i = 0; i < n; ++i) {
    const int v = m.add_variable(0, 1, 1.0 + 0.002 * i);
    m.add_coefficient(cap, v, 1.0);
  }
  const LpSolution first = solve_lp(m);
  ASSERT_TRUE(first.optimal());
  // Top 18 of the 24 boxed columns saturate: 18 + 0.002 * sum(6..23).
  EXPECT_NEAR(first.objective, 18.0 + 0.002 * 261, 1e-6);

  LpModel tight(Sense::kMaximize);
  const int cap2 = tight.add_row(RowType::kLessEqual, 5.0);
  for (int i = 0; i < n; ++i) {
    const int v = tight.add_variable(0, 1, 1.0 + 0.002 * i);
    tight.add_coefficient(cap2, v, 1.0);
  }
  const LpSolution cold = solve_lp(tight);
  const LpSolution warm = solve_lp(tight, {}, &first.basis);
  ASSERT_TRUE(cold.optimal());
  ASSERT_TRUE(warm.optimal());
  EXPECT_FALSE(warm.warm_started);
  EXPECT_TRUE(same_solve(warm, cold));
  EXPECT_NEAR(warm.objective, cold.objective, 1e-7);
  // The five highest-value columns fill the shrunk capacity.
  EXPECT_NEAR(warm.objective, 5.0 + 0.002 * (23 + 22 + 21 + 20 + 19), 1e-6);
}

TEST(SimplexWarmStart, ObjectiveFlipResolveMatchesCold) {
  // Flip the objective after the first solve: the old basis keeps primal
  // feasibility but its reduced costs have the wrong signs, so phase 2
  // starts from it and must reach the same optimum a cold solve finds.
  const DiGraph g = make_ring(5);
  LpModel model = build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
  const LpSolution first = solve_lp(model);
  ASSERT_TRUE(first.optimal());

  // Same constraints, inverted sense of progress: maximize -F.
  LpModel flipped = model;
  flipped.set_objective(model.num_variables() - 1, -1.0);
  const LpSolution cold = solve_lp(flipped);
  const LpSolution warm = solve_lp(flipped, {}, &first.basis);
  ASSERT_TRUE(cold.optimal());
  ASSERT_TRUE(warm.optimal());
  EXPECT_TRUE(warm.warm_started);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
}

TEST(SimplexBoundFlip, FlipOnlySolveLeavesBasisUntouched) {
  // Optimum reached purely by flipping variables to their upper bounds; the
  // final basis must still round-trip as a warm start.
  LpModel m(Sense::kMaximize);
  for (int i = 0; i < 8; ++i) {
    const int v = m.add_variable(0, 1, 1.0);
    m.add_coefficient(m.add_row(RowType::kLessEqual, 2.0), v, 1.0);
  }
  const LpSolution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 8.0, 1e-7);
  const LpSolution again = solve_lp(m, {}, &s.basis);
  ASSERT_TRUE(again.optimal());
  EXPECT_EQ(again.iterations, 0);
}

/// A model presolve cannot collapse: every variable couples several rows.
LpModel overlapping_rows_model(int n) {
  LpModel m(Sense::kMaximize);
  std::vector<int> vars;
  vars.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    vars.push_back(m.add_variable(0, kInfinity, 1.0 + 0.01 * i));
  }
  for (int r = 0; r < n; ++r) {
    const int row = m.add_row(RowType::kLessEqual, 10.0);
    for (int k = 0; k < 5; ++k) {
      m.add_coefficient(row, vars[static_cast<std::size_t>((r * 3 + k * 7) % n)],
                        1.0 + (r + k) % 3);
    }
  }
  return m;
}

TEST(SimplexDeadline, TinyBudgetEndsCooperativelyWithTimeLimit) {
  const LpModel m = overlapping_rows_model(60);
  SimplexOptions opts;
  opts.time_limit_s = 1e-9;  // expires before the first pivot's probe
  const LpSolution cut = solve_lp(m, opts);
  EXPECT_EQ(cut.status, LpStatus::kTimeLimit);
  EXPECT_FALSE(cut.optimal());
  EXPECT_EQ(to_string(cut.status), "time-limit");
}

TEST(SimplexDeadline, GenerousBudgetMatchesUnlimitedOptimum) {
  const LpModel m = overlapping_rows_model(60);
  const LpSolution full = solve_lp(m);
  ASSERT_TRUE(full.optimal());
  SimplexOptions opts;
  opts.time_limit_s = 30.0;
  const LpSolution budgeted = solve_lp(m, opts);
  ASSERT_TRUE(budgeted.optimal());
  EXPECT_NEAR(budgeted.objective, full.objective,
              1e-6 * std::max(1.0, std::abs(full.objective)));
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// The cold retry end to end. Without the update-count backstop and the
/// fill-growth trigger, the Forrest–Tomlin factors of the GenKautz(10,4)
/// tsMCF LP drift until a refactorization finds the basis singular (with a
/// leash of 2 000 they do not). solve_lp() must catch that and finish on
/// the conservative retry (64-update leash, exact ratio tests) at the
/// optimum, and account for the collapsed attempt's work as well as the
/// retry's, in the returned stats and in the lp.* counters alike.
TEST(SimplexColdRetry, RescuesACollapsedSolve) {
  const DiGraph g = make_generalized_kautz(10, 4);
  const LpModel model =
      build_tsmcf_model(g, diameter(g) + 1, TerminalPairs(all_nodes(g)));
  SimplexOptions reckless;
  reckless.ft_update_limit = 4000;
  reckless.refactor_fill_growth = 1e9;
  const std::uint64_t retries_before = counter_value("lp.cold_retries");
  const std::uint64_t iterations_before = counter_value("lp.iterations");
  const std::uint64_t refactors_before = counter_value("lp.refactorizations");
  const std::uint64_t ft_updates_before = counter_value("lp.ft_updates");
  const std::uint64_t degenerate_before = counter_value("lp.degenerate_pivots");
  const std::uint64_t column_before = counter_value("lp.column_priced_rows");
  const LpSolution s = solve_lp(model, reckless);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.stats.cold_retries, 1);
  EXPECT_EQ(counter_value("lp.cold_retries") - retries_before, 1u);
  EXPECT_EQ(counter_value("lp.iterations") - iterations_before,
            static_cast<std::uint64_t>(s.stats.iterations));
  EXPECT_EQ(counter_value("lp.refactorizations") - refactors_before,
            static_cast<std::uint64_t>(s.stats.refactorizations));
  EXPECT_EQ(counter_value("lp.ft_updates") - ft_updates_before,
            static_cast<std::uint64_t>(s.stats.ft_updates));
  EXPECT_EQ(counter_value("lp.degenerate_pivots") - degenerate_before,
            static_cast<std::uint64_t>(s.stats.degenerate_pivots));
  EXPECT_EQ(counter_value("lp.column_priced_rows") - column_before,
            static_cast<std::uint64_t>(s.stats.column_priced_rows));
  // The retry's configuration alone: the collapsed attempt's Forrest–Tomlin
  // updates come on top of these.
  SimplexOptions retry = reckless;
  retry.ft_update_limit = 64;
  retry.harris_ratio = false;
  const LpSolution retry_alone = solve_lp(model, retry);
  ASSERT_TRUE(retry_alone.optimal());
  EXPECT_EQ(retry_alone.stats.cold_retries, 0);
  EXPECT_GT(s.stats.ft_updates, retry_alone.stats.ft_updates);
  EXPECT_GT(s.stats.iterations, retry_alone.stats.iterations);
  const LpSolution dense = solve_lp_dense(model);
  ASSERT_TRUE(dense.optimal());
  EXPECT_NEAR(s.objective, dense.objective, 1e-9 * std::abs(dense.objective));
}

TEST(SimplexDeadline, MergeFailedAttemptFoldsForensicsIntoStats) {
  LpSolution out;
  out.iterations = 10;
  out.stats.iterations = 10;
  out.stats.ft_updates = 4;
  SolverErrorContext context;
  context.iterations = 7;
  context.refactorizations = 3;
  context.ft_updates = 5;
  context.ft_refusals = 2;
  context.bland_episodes = 1;
  context.degenerate_pivots = 6;
  context.column_priced_rows = 4;
  context.phase = "primal";
  const std::uint64_t ft_updates_before = counter_value("lp.ft_updates");
  const std::uint64_t ft_refusals_before = counter_value("lp.ft_refusals");
  const std::uint64_t bland_before = counter_value("lp.bland_episodes");
  const std::uint64_t degenerate_before = counter_value("lp.degenerate_pivots");
  const std::uint64_t column_before = counter_value("lp.column_priced_rows");
  lp_detail::merge_failed_attempt(out, context);
  EXPECT_EQ(out.iterations, 17);
  EXPECT_EQ(out.stats.iterations, 17);
  EXPECT_EQ(out.stats.refactorizations, 3);
  EXPECT_EQ(out.stats.ft_updates, 9);
  EXPECT_EQ(out.stats.ft_refusals, 2);
  EXPECT_EQ(out.stats.bland_episodes, 1);
  EXPECT_EQ(out.stats.degenerate_pivots, 6);
  EXPECT_EQ(out.stats.column_priced_rows, 4);
  EXPECT_EQ(counter_value("lp.ft_updates") - ft_updates_before, 5u);
  EXPECT_EQ(counter_value("lp.ft_refusals") - ft_refusals_before, 2u);
  EXPECT_EQ(counter_value("lp.bland_episodes") - bland_before, 1u);
  EXPECT_EQ(counter_value("lp.degenerate_pivots") - degenerate_before, 6u);
  EXPECT_EQ(counter_value("lp.column_priced_rows") - column_before, 4u);
  // -1 context fields mean "unknown" and must not subtract.
  lp_detail::merge_failed_attempt(out, SolverErrorContext{});
  EXPECT_EQ(out.iterations, 17);
  EXPECT_EQ(out.stats.refactorizations, 3);
  EXPECT_EQ(out.stats.ft_updates, 9);
  EXPECT_EQ(out.stats.ft_refusals, 2);
  EXPECT_EQ(out.stats.bland_episodes, 1);
  EXPECT_EQ(out.stats.degenerate_pivots, 6);
  EXPECT_EQ(out.stats.column_priced_rows, 4);
}

}  // namespace
}  // namespace a2a
