// Pins "same pivots": the sparse simplex's pivot rules must choose exactly
// what the rules they replaced chose, bit for bit.
//   * The column-wise and row-wise pivot rows (SimplexCore::price_out)
//     against each other and against a reference that sums each a_rj in
//     ascending row order and skips rho entries below kLpDropTol.
//   * The LpStats of two cold pMCF solves, read while the CSR-only pivot row
//     was still in place.
//   * What lp.degenerate_pivots and lp.column_priced_rows count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/random.hpp"
#include "graph/topologies.hpp"
#include "lp/simplex.hpp"
#include "lp/simplex_core.hpp"
#include "mcf/concurrent_flow.hpp"
#include "mcf/path_mcf.hpp"
#include "obs/metrics.hpp"

namespace a2a {
namespace {

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
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
  long long refactorizations;
  long long ft_updates;
  std::uint64_t objective_bits;
};

void expect_pinned(const LpSolution& s, const PinnedStats& want) {
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.stats.iterations, want.iterations);
  EXPECT_EQ(s.stats.refactorizations, want.refactorizations);
  EXPECT_EQ(s.stats.ft_updates, want.ft_updates);
  EXPECT_EQ(bits(s.objective), want.objective_bits);
}

/// The GenKautz(n, d) pMCF LP over link-disjoint candidates, and the same
/// LP with the capacity of links 3 and 17 collapsed to 1e-7.
struct PmcfPair {
  LpModel healthy;
  LpModel collapsed;
};

PmcfPair pmcf_pair(int n, int d) {
  const DiGraph g = make_generalized_kautz(n, d);
  const PathSet paths = build_disjoint_path_set(g, all_nodes(g));
  DiGraph collapsed = g;
  for (const EdgeId e : {3, 17}) collapsed.set_capacity(e, 1e-7);
  return {build_path_mcf_model(g, paths), build_path_mcf_model(collapsed, paths)};
}

/// Default options, presolve on: the cold solve from the slack basis. Read
/// before the column-wise pivot row and argmax pricing went in; any change
/// of a pivot shows here.
TEST(PinnedLpStats, GenKautz12) {
  const PmcfPair lp = pmcf_pair(12, 3);
  expect_pinned(solve_lp(lp.healthy), {402, 13, 402, 0x3fc364d9364d9363ull});
}

TEST(PinnedLpStats, GenKautz27) {
  const PmcfPair lp = pmcf_pair(27, 4);
  expect_pinned(solve_lp(lp.healthy), {5821, 77, 5821, 0x3fb0e97366227cafull});
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
  // A second solve moves the counters by its own stats: the collapsed LP,
  // cold.
  const std::uint64_t degenerate_mid = counter_value("lp.degenerate_pivots");
  const std::uint64_t column_mid = counter_value("lp.column_priced_rows");
  const LpSolution collapsed = solve_lp(lp.collapsed);
  ASSERT_TRUE(collapsed.optimal());
  EXPECT_GT(collapsed.stats.degenerate_pivots, 0);
  EXPECT_GT(collapsed.stats.column_priced_rows, 0);
  EXPECT_EQ(counter_value("lp.degenerate_pivots") - degenerate_mid,
            static_cast<std::uint64_t>(collapsed.stats.degenerate_pivots));
  EXPECT_EQ(counter_value("lp.column_priced_rows") - column_mid,
            static_cast<std::uint64_t>(collapsed.stats.column_priced_rows));
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
