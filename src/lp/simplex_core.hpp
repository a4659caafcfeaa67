// Shared basis engine of the sparse revised simplex (internal header).
//
// SimplexCore owns the basis engine: the CSC constraint storage in
// standard form with its two mirrors (CSR, and a row-order index) for the
// pivot row, variable bounds and phase costs, the basis arrays, the sparse
// LU kept alive by Forrest–Tomlin factor updates, warm-start basis import,
// reduced-cost recomputation, and solution export (simplex_core.cpp). Its
// driver, run_primal() in simplex.cpp, is the two-phase primal simplex with
// Devex pricing and the bound-flip ratio test. A caller's basis is adopted
// only when it is primal feasible, and then starts phase 2; any other basis
// leaves the core on the cold slack crash.
//
// Not part of the public API — include lp/simplex.hpp instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

#include "lp/simplex.hpp"
#include "lp/sparse.hpp"
#include "lp/sparse_lu.hpp"

namespace a2a::lp_detail {

// Same underlying values as LpVarStatus so basis import/export is a cast.
enum class VarState : unsigned char { kAtLower, kAtUpper, kBasic };

/// Share of rows with |rho_i| >= kLpDropTol at or above which
/// compute_pivot_row() forms rho' A column-wise over the nonbasic columns
/// instead of row-wise through the CSR mirror. A fixed constant, not an
/// option: both paths give the same bits, so it moves only time. Timed per
/// row, the column-wise path wins from about 70% density on both the
/// GenKautz(27,4) pMCF LP (most of whose rows are 80-100% dense) and the
/// link-MCF master of a 3x3x2 torus (8% dense on average, under 3% of its
/// rows above half), and loses below it.
inline constexpr double kColumnPriceDensity = 0.7;

class SimplexCore {
 public:
  SimplexCore(const LpModel& model, const SimplexOptions& options,
              const LpBasis* warm_start);

  /// True when the supplied warm-start basis was adopted.
  [[nodiscard]] bool warm_started() const { return warm_started_; }

  /// Two-phase primal simplex (phase 1 only from a cold crash basis that
  /// needed artificials; an adopted basis starts phase 2). Defined in
  /// simplex.cpp.
  LpSolution run_primal(const LpModel& model);

 protected:
  // ---- construction helpers (simplex_core.cpp) ----------------------------
  void build(const LpModel& model, const LpBasis* warm_start);
  bool try_warm_start(const LpBasis& warm);
  void crash_basis();

  [[nodiscard]] int num_vars() const { return cols_.num_cols(); }
  [[nodiscard]] bool fixed(int j) const { return up_[j] - lo_[j] < 1e-30; }

  void set_phase_costs(bool phase1);
  [[nodiscard]] double phase_objective() const;

  // ---- linear algebra (simplex_core.cpp) ----------------------------------
  /// `save_spike` additionally captures the Forrest–Tomlin spike (the
  /// partial solve before U) for a subsequent update_factors() of the same
  /// column; only compute_column() sets it.
  void ftran_full(std::vector<double>& x, bool save_spike = false);
  void btran_full(std::vector<double>& y);
  /// alpha <- B^-1 A_j: dense scatter of column j, then a full FTRAN. The
  /// Forrest–Tomlin spike of column j is captured as a side effect, so a
  /// pivot on j can update the factors without re-solving.
  void compute_column(int j, std::vector<double>& alpha);
  /// Row `row` of B^-1 A: rho = B^-T e_row, then price_out(), column-wise
  /// when at least kColumnPriceDensity of rho's entries reach kLpDropTol.
  void compute_pivot_row(int row, std::vector<double>& rho,
                         std::vector<double>& accum,
                         std::vector<int>& touched);
  /// rho' A. Zeroes the entries of `rho` below kLpDropTol, then sums either
  /// column-wise over the nonbasic, non-fixed columns (through row_order_)
  /// or row-wise over the rows left nonzero (CSR mirror). Both sum each
  /// a_rj in ascending row order into `accum` (all-zero on entry) and list
  /// j once in `touched` (cleared here first), so they give the same bits;
  /// the row-wise path also lists basic, fixed and zero-sum columns, which
  /// callers skip.
  void price_out(std::vector<double>& rho, std::vector<double>& accum,
                 std::vector<int>& touched, bool column_wise);
  /// Folds the pivot (the entering column whose spike the last
  /// compute_column() captured, basis position `row`) into the live
  /// factorization with a Forrest–Tomlin update of the LU factors. Returns
  /// true when the caller must refactorize — the update was refused as
  /// unstable, fill grew past SimplexOptions::refactor_fill_growth, or the
  /// update count hit SimplexOptions::ft_update_limit.
  [[nodiscard]] bool update_factors(int row);
  void refactorize();
  /// d_j for every column, and with it every primal pricing score.
  void recompute_reduced_costs();
  /// score_[j] from the current d_j, weight_[j] and state: viol^2 / weight
  /// for a nonbasic, non-fixed column whose reduced cost violates
  /// optimality by more than kLpOptimalityTol, else 0. Called wherever one
  /// of those changes, so that primal pricing is an argmax over score_.
  void refresh_score(int j) {
    const auto sj = static_cast<std::size_t>(j);
    double score = 0.0;
    if (state_[sj] != VarState::kBasic && !fixed(j)) {
      const double viol = state_[sj] == VarState::kAtLower ? -d_[sj] : d_[sj];
      if (viol > kLpOptimalityTol) score = viol * viol / weight_[sj];
    }
    score_[sj] = score;
  }

  /// Cooperative deadline probe for the iteration loops, called once per
  /// pivot. Reads the clock on every call of a core with a budget (a read
  /// costs tens of ns, a pMCF pivot tens of µs) and never without one; once
  /// it fires, it stays true for the rest of this core's life.
  [[nodiscard]] bool time_exceeded();

  /// Writes values, objective, basis, iteration count and wall time into
  /// `out` from the current state.
  void finish(LpSolution& out, const LpModel& model,
              std::chrono::steady_clock::time_point start);

  // ---- driver (simplex.cpp) -----------------------------------------------
  LpStatus iterate_primal();

  const SimplexOptions options_;
  const int m_;
  int n_structural_ = 0;
  bool needs_phase1_ = false;
  bool warm_started_ = false;
  long long iterations_ = 0;
  /// Engine counters for this core's run, exported via finish() into
  /// LpSolution::stats and pushed once (there, not per event) into the
  /// global `lp.*` metrics. Plain ints: the iteration loops never touch an
  /// atomic.
  LpStats stats_;
  /// Which loop currently drives the engine ("build", "phase1", "primal") —
  /// carried as context on SolverError when the basis goes singular.
  const char* phase_ = "build";

  /// Wall-clock budget (SimplexOptions::time_limit_s), armed at
  /// construction; time_point{} means unlimited.
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  bool time_expired_ = false;

  CscMatrix cols_;  ///< structural, slack, then artificial columns.
  CsrMatrix csr_;   ///< row-wise pivot rows.
  std::vector<int> row_order_;  ///< cols_.row_order(): column-wise pivot rows.
  /// price_out()'s row-wise path lists column j at most once per call by
  /// stamping it with that call's epoch.
  std::vector<std::uint32_t> touch_stamp_;
  std::uint32_t touch_epoch_ = 0;
  std::vector<double> lo_, up_, cost_, work_cost_;
  std::vector<double> rhs_, row_sign_;

  std::vector<int> basic_;  ///< basis variable per row.
  std::vector<double> x_basic_;
  std::vector<VarState> state_;
  std::vector<double> x_nonbasic_value_;

  SparseLu lu_;
  std::vector<double> lu_scratch_;
  /// Forrest–Tomlin spike of the last compute_column() (the partial FTRAN
  /// before the U solve), consumed by update_factors() at the pivot.
  std::vector<double> ft_spike_;

  std::vector<double> d_;       ///< maintained reduced costs (nonbasic).
  std::vector<double> weight_;  ///< Devex reference weights (primal, per column).
  std::vector<double> score_;   ///< primal pricing score (refresh_score()).
  int pricing_cursor_ = 0;  ///< partial-pricing scan position (primal).
};

/// Folds the forensics of a failed solve attempt (carried on the
/// SolverError that aborted it — its core never ran finish(), so the work
/// it did would otherwise vanish) into the cold retry's solution stats and
/// the global lp.* counters. Exposed for the cold-retry accounting tests.
void merge_failed_attempt(LpSolution& out, const SolverErrorContext& context);

}  // namespace a2a::lp_detail
