// Randomized LP differential harness (ctest label `fuzz`).
//
// Generates random LPs — box LPs with presolve bait (fixed variables,
// singleton/empty rows, empty columns, duplicate rows), tie-heavy degenerate
// instances, and random-network link-MCF models — and cross-checks every
// solver path against every other:
//   * dense reference (solve_lp_dense) — the only independent oracle for
//     the non-exact box, degenerate and network families;
//   * Forrest–Tomlin with presolve, Harris and sectioned pricing off;
//   * FT + presolve;
//   * FT + Harris;
//   * the full default (FT + presolve + Harris), sectioned pricing forced;
//   * a warm re-solve of a capacity-collapsed instance, whose primal
//     infeasible basis must be rejected: bit-identical to its cold solve;
//   * a warm re-solve with a perturbed objective, whose primal-feasible
//     basis must be adopted, vs cold;
//   * an EXACT rational tableau simplex (Bland's rule, Rational arithmetic)
//     on the small all-integer instances, where "identical objective" means
//     equality against the exact optimum, not solver-vs-solver agreement.
// Statuses must agree, optimal objectives must match to tight tolerance,
// and the (postsolved) solution of the default path must satisfy every
// original constraint and bound.
//
// A2A_FUZZ_ITERS overrides the instance count for longer soak runs; seeds
// derive from the instance index, so any failure reproduces standalone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <vector>

#include "common/random.hpp"
#include "common/rational.hpp"
#include "graph/digraph.hpp"
#include "lp/simplex.hpp"
#include "lp_same_solve.hpp"
#include "mcf/concurrent_flow.hpp"
#include "reference/dense_simplex.hpp"
#include "reference/lu.hpp"
#include "reference/matrix.hpp"

namespace a2a {
namespace {

// ---- exact rational oracle --------------------------------------------------

struct ExactResult {
  LpStatus status = LpStatus::kIterationLimit;
  Rational objective;
};

/// Dense two-phase tableau simplex over Rational with Bland's rule: exact
/// and cycle-free, the ground-truth oracle for small integer LPs. Requires
/// every lower bound to be non-negative (the generator's exact family
/// guarantees it); finite bounds become explicit rows. Returns nullopt when
/// the rationals overflow int64 (possible on adversarial pivots — the
/// caller just skips the exact comparison) or the pivot cap trips.
std::optional<ExactResult> exact_solve(const LpModel& model) {
  const int n = model.num_variables();
  const double obj_sign = model.sense() == Sense::kMaximize ? -1.0 : 1.0;
  try {
    // Assemble rows: the model's own, then one x_j <= u_j row per finite
    // upper bound. Negative rhs rows are sign-flipped so b >= 0.
    struct Row {
      std::vector<Rational> a;
      Rational b;
      RowType type;
    };
    std::vector<Row> rows;
    for (int r = 0; r < model.num_rows(); ++r) {
      Row row;
      row.a.assign(static_cast<std::size_t>(n), Rational(0));
      row.b = Rational::approximate(model.rhs(r));
      row.type = model.row_type(r);
      for (int j = 0; j < n; ++j) {
        for (const auto& e : model.column(j)) {
          if (e.row == r) row.a[static_cast<std::size_t>(j)] = Rational::approximate(e.value);
        }
      }
      rows.push_back(std::move(row));
    }
    for (int j = 0; j < n; ++j) {
      if (model.upper(j) < kInfinity) {
        Row row;
        row.a.assign(static_cast<std::size_t>(n), Rational(0));
        row.a[static_cast<std::size_t>(j)] = Rational(1);
        row.b = Rational::approximate(model.upper(j));
        row.type = RowType::kLessEqual;
        rows.push_back(std::move(row));
      }
      if (model.lower(j) > 0.0) {
        Row row;
        row.a.assign(static_cast<std::size_t>(n), Rational(0));
        row.a[static_cast<std::size_t>(j)] = Rational(1);
        row.b = Rational::approximate(model.lower(j));
        row.type = RowType::kGreaterEqual;
        rows.push_back(std::move(row));
      }
    }
    const int m = static_cast<int>(rows.size());
    for (Row& row : rows) {
      if (row.b < Rational(0)) {
        for (Rational& v : row.a) v = Rational(0) - v;
        row.b = Rational(0) - row.b;
        row.type = row.type == RowType::kLessEqual ? RowType::kGreaterEqual
                   : row.type == RowType::kGreaterEqual ? RowType::kLessEqual
                                                        : RowType::kEqual;
      }
    }
    // Tableau columns: structural, then slack/surplus, then artificials.
    std::vector<std::vector<Rational>> T(
        static_cast<std::size_t>(m),
        std::vector<Rational>(static_cast<std::size_t>(n), Rational(0)));
    for (int r = 0; r < m; ++r) T[r] = rows[static_cast<std::size_t>(r)].a;
    std::vector<Rational> rhs(static_cast<std::size_t>(m));
    for (int r = 0; r < m; ++r) rhs[static_cast<std::size_t>(r)] = rows[static_cast<std::size_t>(r)].b;
    std::vector<int> basis(static_cast<std::size_t>(m), -1);
    int num_cols = n;
    const auto add_unit_column = [&](int r, const Rational& v) {
      for (int i = 0; i < m; ++i) {
        T[static_cast<std::size_t>(i)].push_back(i == r ? v : Rational(0));
      }
      return num_cols++;
    };
    int first_artificial = -1;
    for (int r = 0; r < m; ++r) {
      const RowType type = rows[static_cast<std::size_t>(r)].type;
      if (type == RowType::kLessEqual) {
        basis[static_cast<std::size_t>(r)] = add_unit_column(r, Rational(1));
      } else if (type == RowType::kGreaterEqual) {
        add_unit_column(r, Rational(-1));
      }
    }
    for (int r = 0; r < m; ++r) {
      if (basis[static_cast<std::size_t>(r)] >= 0) continue;
      const int a = add_unit_column(r, Rational(1));
      if (first_artificial < 0) first_artificial = a;
      basis[static_cast<std::size_t>(r)] = a;
    }
    if (first_artificial < 0) first_artificial = num_cols;

    std::vector<Rational> cost(static_cast<std::size_t>(num_cols), Rational(0));
    for (int j = 0; j < n; ++j) {
      cost[static_cast<std::size_t>(j)] =
          Rational::approximate(obj_sign * model.objective(j));
    }
    const auto apply_pivot = [&](int leaving, int entering) {
      const Rational piv =
          T[static_cast<std::size_t>(leaving)][static_cast<std::size_t>(entering)];
      for (int j = 0; j < num_cols; ++j) {
        T[static_cast<std::size_t>(leaving)][static_cast<std::size_t>(j)] =
            T[static_cast<std::size_t>(leaving)][static_cast<std::size_t>(j)] / piv;
      }
      rhs[static_cast<std::size_t>(leaving)] = rhs[static_cast<std::size_t>(leaving)] / piv;
      for (int i = 0; i < m; ++i) {
        if (i == leaving) continue;
        const Rational f = T[static_cast<std::size_t>(i)][static_cast<std::size_t>(entering)];
        if (f.is_zero()) continue;
        for (int j = 0; j < num_cols; ++j) {
          T[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] -=
              f * T[static_cast<std::size_t>(leaving)][static_cast<std::size_t>(j)];
        }
        rhs[static_cast<std::size_t>(i)] -= f * rhs[static_cast<std::size_t>(leaving)];
      }
      basis[static_cast<std::size_t>(leaving)] = entering;
    };
    const auto iterate = [&](const std::vector<Rational>& c,
                             bool lock_artificials) -> std::optional<LpStatus> {
      for (int pivots = 0; pivots < 5000; ++pivots) {
        // Reduced costs d_j = c_j - c_B' T_j; Bland: lowest j with d_j < 0.
        int entering = -1;
        for (int j = 0; j < num_cols && entering < 0; ++j) {
          if (lock_artificials && j >= first_artificial) break;
          bool is_basic = false;
          for (int i = 0; i < m; ++i) is_basic |= basis[static_cast<std::size_t>(i)] == j;
          if (is_basic) continue;
          Rational d = c[static_cast<std::size_t>(j)];
          for (int i = 0; i < m; ++i) {
            const Rational cb = c[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])];
            if (!cb.is_zero()) d -= cb * T[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
          }
          if (d < Rational(0)) entering = j;
        }
        if (entering < 0) return LpStatus::kOptimal;
        int leaving = -1;
        Rational best_ratio;
        for (int i = 0; i < m; ++i) {
          const Rational& a = T[static_cast<std::size_t>(i)][static_cast<std::size_t>(entering)];
          if (!(a > Rational(0))) continue;
          const Rational ratio = rhs[static_cast<std::size_t>(i)] / a;
          if (leaving < 0 || ratio < best_ratio ||
              (ratio == best_ratio &&
               basis[static_cast<std::size_t>(i)] < basis[static_cast<std::size_t>(leaving)])) {
            leaving = i;
            best_ratio = ratio;
          }
        }
        if (leaving < 0) return LpStatus::kUnbounded;
        apply_pivot(leaving, entering);
      }
      return std::nullopt;  // pivot cap (never seen; Bland cannot cycle)
    };

    // Phase 1: minimize the artificial sum.
    if (first_artificial < num_cols) {
      std::vector<Rational> phase1(static_cast<std::size_t>(num_cols), Rational(0));
      for (int j = first_artificial; j < num_cols; ++j) phase1[static_cast<std::size_t>(j)] = Rational(1);
      const auto s = iterate(phase1, /*lock_artificials=*/false);
      if (!s.has_value()) return std::nullopt;
      Rational infeas(0);
      for (int i = 0; i < m; ++i) {
        if (basis[static_cast<std::size_t>(i)] >= first_artificial) {
          infeas += rhs[static_cast<std::size_t>(i)];
        }
      }
      if (!(infeas == Rational(0))) {
        return ExactResult{LpStatus::kInfeasible, Rational(0)};
      }
      // Drive still-basic artificials (degenerate, value zero) out of the
      // basis with a degenerate pivot on any nonbasic structural/slack
      // column in their row — otherwise phase 2, where artificials cost
      // nothing, can silently grow one back and void its constraint. A row
      // with no such column is redundant: every entering column has a zero
      // there, so the artificial stays pinned at zero and is harmless.
      for (int i = 0; i < m; ++i) {
        if (basis[static_cast<std::size_t>(i)] < first_artificial) continue;
        int pivot_col = -1;
        for (int j = 0; j < first_artificial && pivot_col < 0; ++j) {
          bool is_basic = false;
          for (int r = 0; r < m; ++r) is_basic |= basis[static_cast<std::size_t>(r)] == j;
          if (!is_basic &&
              !T[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)].is_zero()) {
            pivot_col = j;
          }
        }
        if (pivot_col >= 0) apply_pivot(i, pivot_col);
      }
    }
    const auto s = iterate(cost, /*lock_artificials=*/true);
    if (!s.has_value()) return std::nullopt;
    if (*s == LpStatus::kUnbounded) return ExactResult{LpStatus::kUnbounded, Rational(0)};
    Rational obj(0);
    for (int i = 0; i < m; ++i) {
      const Rational cb = cost[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])];
      if (!cb.is_zero()) obj += cb * rhs[static_cast<std::size_t>(i)];
    }
    if (obj_sign < 0.0) obj = Rational(0) - obj;  // back to the model's sense
    return ExactResult{LpStatus::kOptimal, obj};
  } catch (const Error&) {
    return std::nullopt;  // rational overflow: exact comparison unavailable
  }
}

// ---- instance generators ----------------------------------------------------

/// Box LP with presolve bait. `exact_family` restricts to all-integer data
/// with zero lower bounds so the rational oracle applies.
LpModel random_box_lp(Rng& rng, bool exact_family) {
  const int n = exact_family ? rng.next_int(2, 5) : rng.next_int(2, 13);
  const int m = exact_family ? rng.next_int(1, 5) : rng.next_int(1, 11);
  LpModel model(rng.next_below(2) == 0 ? Sense::kMinimize : Sense::kMaximize);
  for (int j = 0; j < n; ++j) {
    double lo = 0.0;
    double up = kInfinity;
    const int kind = rng.next_int(0, 10);
    if (kind < 5) {
      up = static_cast<double>(rng.next_int(1, 5));  // boxed
    } else if (kind == 5) {
      lo = up = static_cast<double>(rng.next_int(0, 3));  // fixed: presolve bait
    } else if (kind == 6 && !exact_family) {
      lo = static_cast<double>(rng.next_int(-3, 1));
      up = lo + rng.next_int(0, 5);
    }
    model.add_variable(lo, up, static_cast<double>(rng.next_int(-4, 5)));
  }
  for (int r = 0; r < m; ++r) {
    const RowType type = static_cast<RowType>(rng.next_int(0, 3));
    const int rhs = rng.next_int(exact_family ? 0 : -4, 9);
    const int row = model.add_row(type, static_cast<double>(rhs));
    const int kind = rng.next_int(0, 12);
    if (kind == 0) continue;  // empty row: presolve bait
    const int entries = kind == 1 ? 1  // singleton row: presolve bait
                                  : rng.next_int(2, std::max(3, n + 1));
    for (int k = 0; k < entries; ++k) {
      const int var = rng.next_int(0, n);
      int coeff = rng.next_int(-3, 4);
      if (coeff == 0) coeff = 1;
      model.add_coefficient(row, var, static_cast<double>(coeff));
    }
  }
  return model;
}

/// Tie-heavy degenerate LP: duplicated rows and columns, zero rhs — the
/// alternate-optima faces where deterministic tie-breaking and Harris
/// windows earn their keep.
LpModel random_degenerate_lp(Rng& rng) {
  const int n = rng.next_int(3, 9);
  LpModel model(Sense::kMaximize);
  for (int j = 0; j < n; ++j) {
    model.add_variable(0.0, static_cast<double>(rng.next_int(1, 4)), 1.0);
  }
  const int m = rng.next_int(2, 7);
  std::vector<int> pattern;
  for (int r = 0; r < m; ++r) {
    const bool duplicate = r > 0 && rng.next_below(3) == 0 && !pattern.empty();
    if (!duplicate) {
      pattern.clear();
      for (int j = 0; j < n; ++j) {
        if (rng.next_below(2) == 0) pattern.push_back(j);
      }
      if (pattern.empty()) pattern.push_back(rng.next_int(0, n));
    }
    const int row = model.add_row(RowType::kLessEqual,
                                  static_cast<double>(rng.next_int(0, 6)));
    for (const int j : pattern) model.add_coefficient(row, j, 1.0);
  }
  return model;
}

/// Random-network link-MCF LP: always feasible, totally degenerate at the
/// optimum — the production shape.
LpModel random_network_lp(Rng& rng, DiGraph* graph_out) {
  const int nodes = rng.next_int(4, 8);
  DiGraph g(nodes);
  for (int u = 0; u < nodes; ++u) {
    g.add_edge(u, (u + 1) % nodes, 1.0 + rng.next_int(0, 3));
  }
  const int chords = rng.next_int(1, 2 * nodes);
  for (int c = 0; c < chords; ++c) {
    const int u = rng.next_int(0, nodes);
    const int v = rng.next_int(0, nodes);
    if (u != v) g.add_edge(u, v, 1.0 + rng.next_int(0, 3));
  }
  const int terminals = rng.next_int(2, std::min(nodes, 5));
  std::vector<NodeId> ts;
  for (int t = 0; t < terminals; ++t) ts.push_back(t);
  if (graph_out != nullptr) *graph_out = g;
  return build_link_mcf_model(g, TerminalPairs(ts));
}

// ---- checks -----------------------------------------------------------------

/// Feasibility of `values` against every original row and bound, within a
/// tolerance covering the Harris relaxation and presolve substitutions.
::testing::AssertionResult feasible(const LpModel& model,
                                    const std::vector<double>& values) {
  constexpr double kTol = 1e-5;
  if (static_cast<int>(values.size()) != model.num_variables()) {
    return ::testing::AssertionFailure() << "values size mismatch";
  }
  std::vector<double> activity(static_cast<std::size_t>(model.num_rows()), 0.0);
  for (int j = 0; j < model.num_variables(); ++j) {
    const double v = values[static_cast<std::size_t>(j)];
    if (v < model.lower(j) - kTol || v > model.upper(j) + kTol) {
      return ::testing::AssertionFailure()
             << "var " << j << " = " << v << " outside [" << model.lower(j)
             << ", " << model.upper(j) << "]";
    }
    for (const auto& e : model.column(j)) {
      activity[static_cast<std::size_t>(e.row)] += e.value * v;
    }
  }
  for (int r = 0; r < model.num_rows(); ++r) {
    const double a = activity[static_cast<std::size_t>(r)];
    const double b = model.rhs(r);
    const double tol = kTol * std::max(1.0, std::abs(b));
    const bool ok = model.row_type(r) == RowType::kLessEqual ? a <= b + tol
                    : model.row_type(r) == RowType::kGreaterEqual ? a >= b - tol
                                                                  : std::abs(a - b) <= tol;
    if (!ok) {
      return ::testing::AssertionFailure()
             << "row " << r << " activity " << a << " violates rhs " << b;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Largest bound violation of the basic solution `basis` defines on
/// `model`, computed with the dense LU (reference/lu.hpp), apart from the
/// sparse engine's import: nonbasic columns at their bounds, then x_B = B^-1
/// (b - A_N x_N). Row r's slack has coefficient +1 (-1 on a >= row) and
/// bounds [0, inf), [0, 0] on an equality row. Infinite for a basis that is
/// not square or is singular, which the import rejects too.
double basic_violation(const LpModel& model, const LpBasis& basis) {
  const int n = model.num_variables();
  const int m = model.num_rows();
  const auto lower = [&](int j) { return j < n ? model.lower(j) : 0.0; };
  const auto upper = [&](int j) {
    if (j < n) return model.upper(j);
    return model.row_type(j - n) == RowType::kEqual ? 0.0 : kInfinity;
  };
  Matrix b_matrix(static_cast<std::size_t>(m), static_cast<std::size_t>(m));
  std::vector<double> x(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) x[static_cast<std::size_t>(r)] = model.rhs(r);
  std::vector<int> basic;
  for (int j = 0; j < n + m; ++j) {
    std::vector<LpModel::Entry> column;
    if (j < n) {
      column = model.column(j);
    } else {
      const int r = j - n;
      column.push_back({r, model.row_type(r) == RowType::kGreaterEqual ? -1.0 : 1.0});
    }
    const LpVarStatus status = j < n ? basis.variables[static_cast<std::size_t>(j)]
                                     : basis.rows[static_cast<std::size_t>(j - n)];
    if (status == LpVarStatus::kBasic) {
      if (static_cast<int>(basic.size()) == m) return kInfinity;
      for (const auto& e : column) {
        b_matrix(static_cast<std::size_t>(e.row), basic.size()) += e.value;
      }
      basic.push_back(j);
      continue;
    }
    const double at = status == LpVarStatus::kAtUpper && upper(j) < kInfinity
                          ? upper(j)
                          : lower(j);
    for (const auto& e : column) x[static_cast<std::size_t>(e.row)] -= e.value * at;
  }
  if (static_cast<int>(basic.size()) != m) return kInfinity;
  try {
    LuFactorization(std::move(b_matrix)).solve(x);
  } catch (const SolverError&) {
    return kInfinity;
  }
  double worst = 0.0;
  for (int i = 0; i < m; ++i) {
    const int j = basic[static_cast<std::size_t>(i)];
    const double xi = x[static_cast<std::size_t>(i)];
    worst = std::max({worst, lower(j) - xi, xi - upper(j)});
  }
  return worst;
}

struct SolverPath {
  const char* name;
  SimplexOptions options;
};

std::vector<SolverPath> solver_paths() {
  SimplexOptions exact;
  exact.presolve = false;
  exact.harris_ratio = false;
  exact.partial_pricing_threshold = 0;
  SimplexOptions presolved = exact;
  presolved.presolve = true;
  SimplexOptions harris = exact;
  harris.harris_ratio = true;
  SimplexOptions full;  // FT + presolve + Harris + partial pricing
  full.partial_pricing_threshold = 64;  // force the sectioned scan into play
  return {{"ft-exact", exact},
          {"ft+presolve", presolved},
          {"ft+harris", harris},
          {"full-default", full}};
}

long long fuzz_iterations() {
  if (const char* env = std::getenv("A2A_FUZZ_ITERS")) {
    return std::max(1LL, std::atoll(env));
  }
  return 2200;
}

TEST(FuzzLp, AllSolverPathsAgreeOnRandomInstances) {
  const long long iters = fuzz_iterations();
  const std::vector<SolverPath> paths = solver_paths();
  long long optimal = 0;
  long long infeasible = 0;
  long long unbounded = 0;
  long long exact_checked = 0;
  for (long long i = 0; i < iters; ++i) {
    Rng rng(0x5EEDF00D + static_cast<std::uint64_t>(i));
    const int family = static_cast<int>(rng.next_below(10));
    const bool exact_family = family < 3;
    LpModel model = family < 6 ? random_box_lp(rng, exact_family)
                    : family < 8 ? random_degenerate_lp(rng)
                                 : random_network_lp(rng, nullptr);
    const LpSolution dense = solve_lp_dense(model);
    SCOPED_TRACE(::testing::Message() << "instance " << i << " family " << family
                                      << " n=" << model.num_variables()
                                      << " m=" << model.num_rows());
    for (const SolverPath& path : paths) {
      const LpSolution s = solve_lp(model, path.options);
      ASSERT_EQ(s.status, dense.status) << path.name;
      if (s.optimal()) {
        ASSERT_NEAR(s.objective, dense.objective,
                    1e-6 * std::max(1.0, std::abs(dense.objective)))
            << path.name;
        ASSERT_TRUE(feasible(model, s.values)) << path.name;
      }
    }
    switch (dense.status) {
      case LpStatus::kOptimal: ++optimal; break;
      case LpStatus::kInfeasible: ++infeasible; break;
      case LpStatus::kUnbounded: ++unbounded; break;
      default: FAIL() << "unexpected status from the dense reference";
    }
    if (exact_family) {
      const auto exact = exact_solve(model);
      if (exact.has_value()) {
        ++exact_checked;
        ASSERT_EQ(dense.status, exact->status) << "vs exact oracle";
        if (dense.status == LpStatus::kOptimal) {
          ASSERT_NEAR(dense.objective, exact->objective.to_double(),
                      1e-6 * std::max(1.0, std::abs(dense.objective)))
              << "vs exact oracle";
        }
      }
    }
  }
  // The generator must exercise every status and the oracle must actually
  // fire — a silent skew here would hollow the harness out.
  EXPECT_GT(optimal, iters / 3);
  EXPECT_GT(infeasible, 0);
  EXPECT_GT(unbounded, 0);
  EXPECT_GT(exact_checked, iters / 8);
}

TEST(FuzzLp, WarmResolvesMatchColdOnCollapsedInstances) {
  const long long iters = std::max(1LL, fuzz_iterations() / 8);
  long long rejected = 0;
  for (long long i = 0; i < iters; ++i) {
    Rng rng(0xD00DA000 + static_cast<std::uint64_t>(i));
    DiGraph g(1);
    (void)random_network_lp(rng, &g);  // draw a random graph shape
    const LpModel base = build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
    const LpSolution first = solve_lp(base);
    ASSERT_TRUE(first.optimal()) << "instance " << i;
    const LpBasis warm = first.basis;
    // Perturb: collapse one or two capacities (rhs only), then cross-check
    // the warm re-solve against cold.
    DiGraph shrunk = g;
    const int hits = rng.next_int(1, 3);
    for (int h = 0; h < hits; ++h) {
      shrunk.set_capacity(static_cast<EdgeId>(rng.next_below(
                              static_cast<std::uint64_t>(shrunk.num_edges()))),
                          1e-6);
    }
    const LpModel perturbed =
        build_link_mcf_model(shrunk, TerminalPairs(all_nodes(shrunk)));
    const LpSolution cold = solve_lp(perturbed);
    const LpSolution again = solve_lp(perturbed, {}, &warm);
    ASSERT_TRUE(cold.optimal()) << "instance " << i;
    ASSERT_TRUE(again.optimal()) << "instance " << i;
    // The dense oracle says whether the collapse left the old basis primal
    // infeasible; the tolerance band around the import's own test is
    // skipped, not guessed.
    const double violation = basic_violation(perturbed, warm);
    if (violation > 1e-4) {
      // One rule: an infeasible basis is ignored, and the solve is cold.
      ASSERT_FALSE(again.warm_started) << "instance " << i;
      ASSERT_TRUE(same_solve(again, cold)) << "instance " << i;
      ++rejected;
    } else if (violation < 1e-9) {
      ASSERT_TRUE(again.warm_started) << "instance " << i;
    }
    ASSERT_NEAR(cold.objective, again.objective,
                1e-6 * std::max(1.0, std::abs(cold.objective)))
        << "instance " << i;
    ASSERT_TRUE(feasible(perturbed, again.values)) << "instance " << i;
  }
  // Most collapses must really leave the basis infeasible, or the check is
  // hollow.
  EXPECT_GT(rejected, iters / 2);
}

TEST(FuzzLp, WarmResolvesMatchColdOnRewardedInstances) {
  // A random network's link-MCF LP solved to optimality, then commodity
  // 0's flows rewarded: the old basis stays primal feasible but loses dual
  // feasibility (unless every nonbasic flow of commodity 0 had reduced cost
  // to spare), the crash start's own situation. It must be adopted on every
  // draw and reach the cold optimum.
  const long long iters = std::max(1LL, fuzz_iterations() / 8);
  SimplexOptions no_presolve;
  no_presolve.presolve = false;
  long long pivoted = 0;
  for (long long i = 0; i < iters; ++i) {
    Rng rng(0x2E570AE0 + static_cast<std::uint64_t>(i));
    DiGraph g(1);
    (void)random_network_lp(rng, &g);  // draw a random graph shape
    LpModel rewarded = build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
    const LpSolution first = solve_lp(rewarded);
    ASSERT_TRUE(first.optimal()) << "instance " << i;
    for (int e = 0; e < g.num_edges(); ++e) {
      rewarded.set_objective(link_mcf_var(g.num_edges(), 0, e), 1e-3);
    }
    const LpSolution cold = solve_lp(rewarded);
    const LpSolution warm = solve_lp(rewarded, no_presolve, &first.basis);
    ASSERT_TRUE(cold.optimal()) << "instance " << i;
    ASSERT_TRUE(warm.optimal()) << "instance " << i;
    ASSERT_TRUE(warm.warm_started) << "instance " << i;
    ASSERT_NEAR(cold.objective, warm.objective,
                1e-6 * std::max(1.0, std::abs(cold.objective)))
        << "instance " << i;
    ASSERT_TRUE(feasible(rewarded, warm.values)) << "instance " << i;
    if (warm.iterations > 0) ++pivoted;
  }
  // Most draws must really start dual infeasible, or phase 2 has nothing
  // to do.
  EXPECT_GT(pivoted, iters / 2);
}

}  // namespace
}  // namespace a2a
