// Pins "same pivots": the sparse simplex's pivot rules must choose exactly
// what the rules they replaced chose, bit for bit.
//   * The dual ratio test's selection (select_dual_entering) against the
//     sort-based selection it replaced, kept here as the reference: same
//     entering column, same ratio, same flips in the same order.
//   * The column-wise and row-wise pivot rows (SimplexCore::price_out)
//     against each other and against a reference that sums each a_rj in
//     ascending row order and skips rho entries below kLpDropTol.
//   * The LpStats of four pMCF solves, read while the sort-based selection
//     and the CSR-only pivot row were still in place.
//   * What lp.degenerate_pivots and lp.column_priced_rows count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/random.hpp"
#include "failover/failure_domain.hpp"
#include "graph/topologies.hpp"
#include "lp/simplex.hpp"
#include "lp/simplex_core.hpp"
#include "mcf/concurrent_flow.hpp"
#include "mcf/path_mcf.hpp"
#include "obs/metrics.hpp"

namespace a2a {
namespace {

using lp_detail::DualCandidate;
using lp_detail::DualEntering;

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

// ---- dual ratio test --------------------------------------------------------

struct ReferencePick {
  DualEntering pick;
  std::vector<int> flips;
  std::size_t passed = 0;      ///< candidates the walk passed.
  bool harris_moved = false;   ///< Harris replaced the walk's choice.
};

/// The dual ratio test as it was: sort every candidate, walk the sorted
/// list, refine with Harris, then flip the passed candidates the step
/// crosses.
ReferencePick reference_select(std::vector<DualCandidate> candidates,
                               double violation, bool bland, bool harris) {
  if (bland) {
    std::sort(candidates.begin(), candidates.end(),
              [](const DualCandidate& a, const DualCandidate& b) {
                return a.ratio != b.ratio ? a.ratio < b.ratio : a.j < b.j;
              });
  } else {
    std::sort(candidates.begin(), candidates.end(),
              [](const DualCandidate& a, const DualCandidate& b) {
                if (a.ratio != b.ratio) return a.ratio < b.ratio;
                const double am = std::abs(a.row_value);
                const double bm = std::abs(b.row_value);
                return am != bm ? am > bm : a.j < b.j;
              });
  }
  ReferencePick out;
  const double ftol = kLpFeasibilityTol;
  int entering = -1;
  double entering_ratio = 0.0;
  double remaining = violation;
  std::size_t passed = 0;
  for (const DualCandidate& c : candidates) {
    const double absorb = std::abs(c.row_value) * c.range;
    if (!bland && c.range < kInfinity && remaining - absorb > ftol) {
      ++passed;
      remaining -= absorb;
      continue;
    }
    entering = c.j;
    entering_ratio = c.ratio;
    break;
  }
  out.passed = passed;
  if (harris && !bland && entering >= 0) {
    const double dtol = kLpOptimalityTol;
    double theta_rel = kInfinity;
    for (std::size_t c = passed; c < candidates.size(); ++c) {
      theta_rel = std::min(
          theta_rel,
          candidates[c].ratio + dtol / std::abs(candidates[c].row_value));
    }
    double best_piv = std::abs(candidates[passed].row_value);
    for (std::size_t c = passed + 1; c < candidates.size(); ++c) {
      if (candidates[c].ratio > theta_rel) continue;
      const double piv = std::abs(candidates[c].row_value);
      if (piv <= best_piv) continue;
      const double range = candidates[c].range;
      if (range < kInfinity && piv * range < remaining - ftol) continue;
      best_piv = piv;
      entering = candidates[c].j;
      entering_ratio = candidates[c].ratio;
      out.harris_moved = true;
    }
  }
  if (entering < 0) return out;
  for (std::size_t c = 0; c < passed; ++c) {
    if (candidates[c].ratio < entering_ratio - kLpDropTol) {
      out.flips.push_back(candidates[c].j);
    }
  }
  out.pick = {entering, entering_ratio};
  return out;
}

/// Candidates drawn from small value pools, so that ratios tie exactly and
/// within the Harris window, |a_rj| ties, and boxed ranges are sometimes
/// narrow enough for the walk to pass them and sometimes wide enough to stop
/// it.
std::vector<DualCandidate> random_candidates(Rng& rng) {
  static const double kRatios[] = {0.0, 0.0, 0.5, 0.5, 0.5 + 1e-13,
                                   0.5 + 2e-8, 1.0, 1.0 + 5e-8, 2.0};
  static const double kPivots[] = {1e-8, 0.25, 1.0, 1.0, 3.0};
  static const double kRanges[] = {0.1, 0.5, 1.0, 4.0};
  const int n = rng.next_int(1, 40);
  std::vector<int> ids(200);
  std::iota(ids.begin(), ids.end(), 0);
  rng.shuffle(ids);
  std::vector<DualCandidate> out;
  for (int c = 0; c < n; ++c) {
    DualCandidate cand{};
    cand.j = ids[static_cast<std::size_t>(c)];
    cand.ratio = rng.next_below(5) == 0 ? 3.0 * rng.next_double()
                                        : kRatios[rng.next_below(9)];
    const double piv = rng.next_below(5) == 0 ? 0.1 + rng.next_double()
                                              : kPivots[rng.next_below(5)];
    cand.row_value = rng.next_below(2) == 0 ? piv : -piv;
    cand.range = rng.next_below(3) == 0 ? kInfinity : kRanges[rng.next_below(4)];
    out.push_back(cand);
  }
  return out;
}

TEST(DualRatioTest, MatchesTheSortBasedSelection) {
  Rng rng(0xD0A1);
  long long passed_some = 0;
  long long stopped_at_boxed = 0;
  long long exhausted = 0;
  long long harris_moves = 0;
  long long flipped = 0;
  std::vector<int> flips;
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<DualCandidate> candidates = random_candidates(rng);
    const double violation = 0.05 + 5.0 * rng.next_double();
    const bool bland = rng.next_below(4) == 0;
    const bool harris = rng.next_below(4) != 0;
    const ReferencePick want =
        reference_select(candidates, violation, bland, harris);
    const DualEntering got = lp_detail::select_dual_entering(
        candidates, violation, bland, harris, flips);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " bland " << bland
                                      << " harris " << harris);
    ASSERT_EQ(got.j, want.pick.j);
    ASSERT_EQ(bits(got.ratio), bits(want.pick.ratio));
    ASSERT_EQ(flips, want.flips);
    if (want.passed > 0) ++passed_some;
    if (want.pick.j < 0) ++exhausted;
    if (want.harris_moved) ++harris_moves;
    if (!want.flips.empty()) ++flipped;
    for (const DualCandidate& c : candidates) {
      if (c.j == want.pick.j && c.range < kInfinity && !want.harris_moved) {
        ++stopped_at_boxed;
      }
    }
  }
  // Every branch of the walk must actually be exercised.
  EXPECT_GT(passed_some, 1000);
  EXPECT_GT(stopped_at_boxed, 1000);
  EXPECT_GT(exhausted, 100);
  EXPECT_GT(harris_moves, 300);
  EXPECT_GT(flipped, 500);
}

TEST(DualRatioTest, BreaksTiesLikeTheSortBasedSelection) {
  // Equal ratios: the larger |a_rj| enters, and among equal |a_rj| the lower
  // index — Harris included, since every candidate sits in its window.
  std::vector<DualCandidate> tied = {{7, 0.0, -1.0, kInfinity},
                                     {3, 0.0, 1.0, kInfinity},
                                     {5, 0.0, 0.5, kInfinity}};
  std::vector<int> flips;
  for (const bool harris : {false, true}) {
    std::vector<DualCandidate> c = tied;
    EXPECT_EQ(lp_detail::select_dual_entering(c, 1.0, false, harris, flips).j, 3);
  }
  // Under Bland's rule |a_rj| plays no part: the lowest index enters.
  std::vector<DualCandidate> c = tied;
  EXPECT_EQ(lp_detail::select_dual_entering(c, 1.0, true, false, flips).j, 3);
  c = {{7, 0.0, -3.0, kInfinity}, {9, 0.0, 1.0, kInfinity}};
  EXPECT_EQ(lp_detail::select_dual_entering(c, 1.0, true, false, flips).j, 7);
  // A narrow boxed column is passed and flipped; the next one enters.
  c = {{4, 0.5, 2.0, kInfinity}, {2, 0.25, 1.0, 0.1}};
  const DualEntering pick =
      lp_detail::select_dual_entering(c, 1.0, false, false, flips);
  EXPECT_EQ(pick.j, 4);
  EXPECT_EQ(flips, std::vector<int>{2});
}

// ---- pivot row: column-wise vs row-wise -------------------------------------

/// Opens SimplexCore's price-out and basis state to the mirror check.
class PivotRowProbe : public lp_detail::SimplexCore {
 public:
  using SimplexCore::SimplexCore;
  using SimplexCore::price_out;
  [[nodiscard]] int rows() const { return m_; }
  [[nodiscard]] int columns() const { return num_vars(); }
  [[nodiscard]] bool basic(int j) const {
    return state_[static_cast<std::size_t>(j)] == lp_detail::VarState::kBasic;
  }
  [[nodiscard]] bool is_fixed(int j) const { return fixed(j); }
  [[nodiscard]] const CscMatrix& matrix() const { return cols_; }
};

/// Values from a pool of exact ones (so partial sums cancel to exactly
/// zero and carry on) or of random magnitude (so the summation order shows
/// in the rounding).
double mirror_value(Rng& rng) {
  static const double kExact[] = {1.0, -1.0, 0.5, -0.5, 2.0, -2.0};
  if (rng.next_below(2) == 0) return kExact[rng.next_below(6)];
  return (rng.next_double() - 0.5) * std::ldexp(1.0, rng.next_int(-12, 13));
}

/// A random LP whose columns list their rows in random order, with fixed
/// variables, equality rows (fixed slacks) and >= rows (negated columns).
LpModel random_mirror_lp(Rng& rng) {
  const int m = rng.next_int(3, 13);
  const int n = rng.next_int(3, 16);
  LpModel model(Sense::kMaximize);
  std::vector<int> rows(static_cast<std::size_t>(m));
  std::iota(rows.begin(), rows.end(), 0);
  for (int r = 0; r < m; ++r) {
    const RowType type = static_cast<RowType>(rng.next_int(0, 3));
    (void)model.add_row(type, static_cast<double>(rng.next_int(1, 9)));
  }
  for (int j = 0; j < n; ++j) {
    const bool fixed = rng.next_below(5) == 0;
    const double up = fixed ? 1.0 : (rng.next_below(2) == 0 ? 4.0 : kInfinity);
    const int var = model.add_variable(fixed ? 1.0 : 0.0, up,
                                       static_cast<double>(rng.next_int(0, 4)));
    rng.shuffle(rows);
    const int entries = rng.next_int(1, m + 1);
    for (int k = 0; k < entries; ++k) {
      model.add_coefficient(rows[static_cast<std::size_t>(k)], var,
                            mirror_value(rng));
    }
  }
  return model;
}

TEST(PivotRowMirrors, ColumnAndRowWiseGiveTheSameBits) {
  Rng rng(0x5EED1234);
  SimplexOptions no_presolve;
  no_presolve.presolve = false;
  long long basic_structurals = 0;
  long long fixed_columns = 0;
  long long tiny_rho = 0;
  long long unsorted_columns = 0;
  long long cancellations = 0;
  long long compared = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const LpModel model = random_mirror_lp(rng);
    // An optimal (or last) basis puts structurals in the basis.
    const LpSolution first = solve_lp(model, no_presolve);
    PivotRowProbe probe(model, no_presolve, &first.basis);
    const CscMatrix& a = probe.matrix();
    const int m = probe.rows();
    const int nv = probe.columns();
    for (int j = 0; j < model.num_variables(); ++j) {
      if (probe.basic(j)) ++basic_structurals;
    }
    for (int j = 0; j < nv; ++j) {
      if (!probe.basic(j) && probe.is_fixed(j)) ++fixed_columns;
      for (int k = a.col_begin(j) + 1; k < a.col_end(j); ++k) {
        if (a.entry_row(k) < a.entry_row(k - 1)) {
          ++unsorted_columns;
          break;
        }
      }
    }
    for (int draw = 0; draw < 8; ++draw) {
      std::vector<double> rho(static_cast<std::size_t>(m));
      for (double& ri : rho) {
        const auto kind = rng.next_below(6);
        ri = kind == 0   ? 0.0
             : kind == 1 ? (rng.next_below(2) == 0 ? 5e-13 : -9e-13)
                         : mirror_value(rng);
        if (kind == 1) ++tiny_rho;
      }
      // Reference: a_rj summed in ascending row order over the rows whose
      // |rho_i| reaches kLpDropTol.
      std::vector<double> want(static_cast<std::size_t>(nv), 0.0);
      for (int j = 0; j < nv; ++j) {
        double& sum = want[static_cast<std::size_t>(j)];
        bool had_nonzero = false;
        for (int i = 0; i < m; ++i) {
          if (std::abs(rho[static_cast<std::size_t>(i)]) < kLpDropTol) continue;
          for (int k = a.col_begin(j); k < a.col_end(j); ++k) {
            if (a.entry_row(k) != i) continue;
            // A term after the sum cancelled to exactly zero.
            if (had_nonzero && sum == 0.0) ++cancellations;
            sum += rho[static_cast<std::size_t>(i)] * a.entry_value(k);
            had_nonzero = had_nonzero || sum != 0.0;
          }
        }
      }
      for (const bool column_wise : {true, false}) {
        std::vector<double> r = rho;
        std::vector<double> accum(static_cast<std::size_t>(nv), 0.0);
        std::vector<int> touched;
        probe.price_out(r, accum, touched, column_wise);
        std::vector<int> seen = touched;
        std::sort(seen.begin(), seen.end());
        ASSERT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end())
            << "a column listed twice, column_wise " << column_wise;
        for (int j = 0; j < nv; ++j) {
          if (probe.basic(j) || probe.is_fixed(j)) continue;
          ++compared;
          ASSERT_EQ(bits(accum[static_cast<std::size_t>(j)]),
                    bits(want[static_cast<std::size_t>(j)]))
              << "trial " << trial << " column " << j << " column_wise "
              << column_wise;
          if (column_wise) {
            const bool listed = std::binary_search(seen.begin(), seen.end(), j);
            EXPECT_EQ(listed, want[static_cast<std::size_t>(j)] != 0.0);
          }
        }
      }
    }
  }
  // The draws must cover what could tell the paths apart.
  EXPECT_GT(basic_structurals, 100);
  EXPECT_GT(fixed_columns, 100);
  EXPECT_GT(tiny_rho, 100);
  EXPECT_GT(unsorted_columns, 100);
  EXPECT_GT(cancellations, 100);
  EXPECT_GT(compared, 10000);
}

// ---- pinned stats -----------------------------------------------------------

struct PinnedStats {
  long long iterations;
  long long primal_iterations;
  long long dual_iterations;
  long long refactorizations;
  long long ft_updates;
  std::uint64_t objective_bits;
};

void expect_pinned(const LpSolution& s, const PinnedStats& want) {
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.stats.iterations, want.iterations);
  EXPECT_EQ(s.stats.primal_iterations, want.primal_iterations);
  EXPECT_EQ(s.stats.dual_iterations, want.dual_iterations);
  EXPECT_EQ(s.stats.refactorizations, want.refactorizations);
  EXPECT_EQ(s.stats.ft_updates, want.ft_updates);
  EXPECT_EQ(bits(s.objective), want.objective_bits);
}

/// The GenKautz(n, d) pMCF LP over link-disjoint candidates, and the same
/// LP with links 3 and 17 collapsed as failover re-solves it.
struct PmcfPair {
  LpModel healthy;
  LpModel collapsed;
};

PmcfPair pmcf_pair(int n, int d) {
  const DiGraph g = make_generalized_kautz(n, d);
  const PathSet paths = build_disjoint_path_set(g, all_nodes(g));
  FailureSignature sig;
  sig.edges = {3, 17};
  sig.normalize();
  return {build_path_mcf_model(g, paths),
          build_path_mcf_model(collapsed_topology(g, sig), paths)};
}

/// Default options, presolve on: the cold solve, then the collapsed LP
/// dual-warm from the cold basis. Read before the sort-free ratio test,
/// the column-wise pivot row and argmax pricing went in; any change of a
/// pivot shows here.
TEST(PinnedLpStats, GenKautz12) {
  const PmcfPair lp = pmcf_pair(12, 3);
  const LpSolution cold = solve_lp(lp.healthy);
  expect_pinned(cold, {402, 402, 0, 13, 402, 0x3fc364d9364d9363ull});
  const LpSolution warm = solve_lp(lp.collapsed, {}, &cold.basis);
  EXPECT_TRUE(warm.stats.dual_used);
  expect_pinned(warm, {122, 0, 122, 4, 122, 0x3fbc2ef90fd6d866ull});
}

TEST(PinnedLpStats, GenKautz27) {
  const PmcfPair lp = pmcf_pair(27, 4);
  const LpSolution cold = solve_lp(lp.healthy);
  expect_pinned(cold, {5821, 5821, 0, 77, 5821, 0x3fb0e97366227cafull});
  const LpSolution warm = solve_lp(lp.collapsed, {}, &cold.basis);
  EXPECT_TRUE(warm.stats.dual_used);
  expect_pinned(warm, {1074, 8, 1066, 15, 1074, 0x3faeb68fb02a7d3aull});
}

// ---- counters ---------------------------------------------------------------

TEST(PivotCounters, DegeneratePivotsAndColumnPricedRowsMatchTheirCounters) {
  const PmcfPair lp = pmcf_pair(27, 4);
  const std::uint64_t degenerate_before = counter_value("lp.degenerate_pivots");
  const std::uint64_t column_before = counter_value("lp.column_priced_rows");
  const LpSolution cold = solve_lp(lp.healthy);
  ASSERT_TRUE(cold.optimal());
  // The slack start's first 702 pivots (one per commodity) and 2 267 more
  // later on move nothing.
  EXPECT_EQ(cold.stats.iterations, 5821);
  EXPECT_EQ(cold.stats.degenerate_pivots, 2969);
  // rho is sparse on some pivots and dense on most.
  EXPECT_GT(cold.stats.column_priced_rows, 0);
  EXPECT_LT(cold.stats.column_priced_rows, cold.stats.iterations);
  EXPECT_EQ(counter_value("lp.degenerate_pivots") - degenerate_before,
            static_cast<std::uint64_t>(cold.stats.degenerate_pivots));
  EXPECT_EQ(counter_value("lp.column_priced_rows") - column_before,
            static_cast<std::uint64_t>(cold.stats.column_priced_rows));
  // The dual-warm re-solve: its cost perturbation keeps every dual step
  // strictly positive, and its primal polish moves too.
  const std::uint64_t degenerate_mid = counter_value("lp.degenerate_pivots");
  const std::uint64_t column_mid = counter_value("lp.column_priced_rows");
  const LpSolution warm = solve_lp(lp.collapsed, {}, &cold.basis);
  ASSERT_TRUE(warm.stats.dual_used);
  EXPECT_EQ(warm.stats.degenerate_pivots, 0);
  EXPECT_GT(warm.stats.column_priced_rows, 0);
  EXPECT_EQ(counter_value("lp.degenerate_pivots") - degenerate_mid,
            static_cast<std::uint64_t>(warm.stats.degenerate_pivots));
  EXPECT_EQ(counter_value("lp.column_priced_rows") - column_mid,
            static_cast<std::uint64_t>(warm.stats.column_priced_rows));
}

TEST(PivotCounters, ColumnPricedRowsFollowRhoDensity) {
  SimplexOptions no_presolve;
  no_presolve.presolve = false;
  // x_r <= r + 1, one row each: every basis is diagonal, so rho = e_r on
  // every pivot — one live row of six, never dense enough.
  LpModel diagonal(Sense::kMaximize);
  for (int r = 0; r < 6; ++r) {
    const int x = diagonal.add_variable(0.0, kInfinity, 1.0);
    diagonal.add_coefficient(diagonal.add_row(RowType::kLessEqual, r + 1.0), x,
                             1.0);
  }
  const LpSolution sparse = solve_lp(diagonal, no_presolve);
  ASSERT_TRUE(sparse.optimal());
  EXPECT_EQ(sparse.stats.iterations, 6);
  EXPECT_EQ(sparse.stats.column_priced_rows, 0);
  // One row: rho is a nonzero 1-vector, fully dense, so every pivot row is
  // formed column-wise. Pricing takes x1 first (score 9 against 4), then
  // swaps it for x2: two pivots.
  LpModel one_row;
  const int x1 = one_row.add_variable(0.0, kInfinity, -3.0);
  const int x2 = one_row.add_variable(0.0, kInfinity, -2.0);
  const int r = one_row.add_row(RowType::kLessEqual, 6.0);
  one_row.add_coefficient(r, x1, 3.0);
  one_row.add_coefficient(r, x2, 1.0);
  const LpSolution dense = solve_lp(one_row, no_presolve);
  ASSERT_TRUE(dense.optimal());
  EXPECT_EQ(dense.stats.iterations, 2);
  EXPECT_EQ(dense.stats.column_priced_rows, dense.stats.iterations);
}

}  // namespace
}  // namespace a2a
