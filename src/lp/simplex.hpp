// Bounded-variable two-phase revised simplex.
//
// This is the exact solver behind the MCF formulations (the role MOSEK plays
// in the paper): solve_lp(), a sparse revised simplex with a presolve/
// postsolve layer (lp/presolve.hpp), CSC constraint storage, sparse-LU basis
// factors kept alive with Forrest–Tomlin updates (FTRAN/BTRAN are sparse
// triangular solves, no dense inverse), Devex pricing (sectioned partial
// pricing on wide models) with incrementally maintained reduced costs, a
// Harris two-pass bound-flip ratio test, and optional warm starts from a
// caller's primal-feasible basis. The tolerances are constants (kLp*
// below), not options. The tests check it against a dense reference solver
// kept outside the library (tests/reference/dense_simplex.hpp).
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "lp/model.hpp"

namespace a2a {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  /// The cooperative wall-clock budget (SimplexOptions::time_limit_s)
  /// expired mid-solve. The solution carries the best basis reached so far
  /// (values, objective and an exportable basis), not a certificate of
  /// anything; every MCF entry point throws SolverError on it.
  kTimeLimit,
};

/// Basis status of one variable (structural or row slack).
enum class LpVarStatus : unsigned char { kAtLower, kAtUpper, kBasic };

/// A simplex basis: one status per structural variable and one per row (the
/// row's slack). Produced by solve_lp() at the end of every solve; feeding it
/// back as a warm start lets a re-solve of the same-shaped LP restart from
/// it instead of from scratch, as long as it is still primal feasible.
struct LpBasis {
  std::vector<LpVarStatus> variables;
  std::vector<LpVarStatus> rows;

  [[nodiscard]] bool empty() const { return variables.empty() && rows.empty(); }
  [[nodiscard]] bool compatible(int num_variables, int num_rows) const {
    return static_cast<int>(variables.size()) == num_variables &&
           static_cast<int>(rows.size()) == num_rows;
  }
};

/// Per-solve engine statistics (sparse solver only; the dense reference
/// leaves them zero). Filled for every solve, independent of the obs layer's
/// runtime switch — these are plain counters the engine maintains anyway.
/// The same numbers feed the `lp.*` metrics (src/obs/metrics.hpp), so a
/// bench record and a live dashboard agree by construction.
struct LpStats {
  long long iterations = 0;         ///< pivots across phases and retries.
  long long refactorizations = 0;   ///< full LU factorizations of the basis.
  long long ft_updates = 0;         ///< accepted Forrest–Tomlin updates.
  /// FT updates refused transactionally (unstable spike diagonal) — each one
  /// forced a refactorization instead.
  long long ft_refusals = 0;
  /// Transitions into Bland's rule (anti-cycling episodes), phase 1 +
  /// phase 2.
  long long bland_episodes = 0;
  /// Pivots that did not move the objective: a phase 1 or 2 step <= 1e-10
  /// (the stall rule's zero-step test).
  long long degenerate_pivots = 0;
  /// Pivot rows formed column-wise over the nonbasic columns (rho dense);
  /// the rest went row-wise through the CSR mirror.
  long long column_priced_rows = 0;
  /// 1 when the first attempt threw SolverError (numerical collapse) and the
  /// solve finished on the cold conservative retry (Forrest–Tomlin with a
  /// 64-update leash, Harris off).
  int cold_retries = 0;
  /// Presolve reductions (lp/presolve.hpp), zero when presolve was off.
  long long presolve_fixed_variables = 0;
  long long presolve_empty_columns = 0;
  long long presolve_empty_rows = 0;
  long long presolve_singleton_rows = 0;
  long long presolve_tightened_bounds = 0;

  /// Merge another solve's counts (cold retries, presolve-reduced inner
  /// solves) into this one.
  void accumulate(const LpStats& other) {
    iterations += other.iterations;
    refactorizations += other.refactorizations;
    ft_updates += other.ft_updates;
    ft_refusals += other.ft_refusals;
    bland_episodes += other.bland_episodes;
    degenerate_pivots += other.degenerate_pivots;
    column_priced_rows += other.column_priced_rows;
    cold_retries += other.cold_retries;
    presolve_fixed_variables += other.presolve_fixed_variables;
    presolve_empty_columns += other.presolve_empty_columns;
    presolve_empty_rows += other.presolve_empty_rows;
    presolve_singleton_rows += other.presolve_singleton_rows;
    presolve_tightened_bounds += other.presolve_tightened_bounds;
  }
};

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;          ///< in the model's original sense.
  std::vector<double> values;      ///< primal values of structural variables.
  long long iterations = 0;
  double solve_seconds = 0.0;
  /// Final basis (sparse solver only); reusable via solve_lp()'s warm start.
  LpBasis basis;
  /// True when a supplied warm-start basis was adopted (see solve_lp()).
  bool warm_started = false;
  /// Engine statistics for this solve (see LpStats).
  LpStats stats;

  [[nodiscard]] bool optimal() const { return status == LpStatus::kOptimal; }
};

/// Numerical tolerances of the simplex engines: the sparse solver, presolve
/// and the dense reference all read these. They are constants rather than
/// options because every shipped solve runs the same values, and
/// schedule_fingerprint() feeds them so a cached schedule stays tied to the
/// tolerances that produced it.
inline constexpr double kLpFeasibilityTol = 1e-7;
inline constexpr double kLpOptimalityTol = 1e-7;
inline constexpr double kLpPivotTol = 1e-9;
/// Non-improving primal pivots before pricing switches to Bland's rule.
inline constexpr int kLpStallLimit = 8000;
/// Phase-1 objective above this at phase-1 optimality means infeasible.
inline constexpr double kLpPhase1Tol = 1e-6;
/// Magnitudes below this are treated as exact zeros: entries dropped from
/// Forrest–Tomlin updates, pivot-row scan cutoffs, ratio-test tie windows
/// and the degenerate-step threshold.
inline constexpr double kLpDropTol = 1e-12;
/// A pivot magnitude below this forces a refactorization right after the
/// pivot is applied (the factor update it leaves behind is too
/// ill-conditioned to keep).
inline constexpr double kLpRefactorPivotTol = 1e-8;

/// The longest budget in seconds that the LP's deadline and the broker's
/// coalesced wait arm on a clock; a longer one (up to inf) is no budget, as
/// its steady_clock ticks would overflow past ~292 years.
inline constexpr double kMaxBudgetSeconds = 1e9;

struct SimplexOptions {
  long long max_iterations = 2'000'000;
  /// Wall-clock budget for the whole solve in seconds; 0 = unlimited, and so
  /// is anything above kMaxBudgetSeconds. The primal phases read the clock
  /// before every pivot and end the solve with kTimeLimit — exporting the
  /// best basis reached so far — instead of running on or throwing. The
  /// budget is absolute across a solve_lp() call: presolve, a collapsed
  /// attempt and its cold retry all draw from the same allowance, so a
  /// deadline-bounded caller overshoots by at most one pivot plus one
  /// refactorization.
  double time_limit_s = 0.0;
  /// Hard backstop on Forrest–Tomlin updates between refactorizations.
  /// Fill growth and diagonal stability are the adaptive triggers, but the
  /// backstop also clamps x_basic_/reduced-cost drift (refactorization is
  /// when both are recomputed): ill-conditioned tsMCF bases go numerically
  /// singular when hundreds of pivots run without a refresh, so this stays
  /// small. The cold retry after a numerical collapse caps it at 64.
  int ft_update_limit = 192;
  /// Refactorize when the live U fill plus row-eta entries exceed this
  /// multiple of the fresh factorization's fill — the "FTRAN/BTRAN cost is
  /// growing" signal.
  double refactor_fill_growth = 3.0;
  /// An update whose transformed spike diagonal is below this (relative to
  /// the spike's largest entry) is refused and the basis refactorized
  /// instead.
  double ft_diag_tol = 1e-9;
  /// Run the presolve/postsolve layer (lp/presolve.hpp: fixed-variable and
  /// empty/singleton row-column elimination, bound tightening) before the
  /// simplex and map the solution and basis back afterwards. Warm-start
  /// bases thread through: they are mapped into the reduced space on entry
  /// and the exported basis covers the full original model.
  bool presolve = true;
  /// Use the Harris two-pass ratio test (Harris 1973) in the primal loop:
  /// pass 1 computes the best ratio with bounds relaxed by the feasibility
  /// tolerance, pass 2 picks the largest pivot among
  /// candidates within that relaxed bound — trading a bounded, tolerance-
  /// sized constraint violation for numerically safer pivots and fewer
  /// degenerate stalls on MCF bases.
  bool harris_ratio = true;
  /// Partial (sectioned) Devex pricing kicks in above this many columns:
  /// the entering-candidate scan walks rotating sections of the column range
  /// and stops at the first section containing an attractive candidate,
  /// instead of pricing all 50k pMCF columns every pivot. 0 disables.
  int partial_pricing_threshold = 4096;
};

/// Solves `model` with the sparse revised simplex; throws SolverError only on
/// internal numerical failure (singular basis after refactorization).
/// Infeasible/unbounded are reported via the status field. A non-null
/// `warm_start` is adopted, straight into primal phase 2, when it fits the
/// model's shape, factorizes and is primal feasible; any other basis is
/// ignored and the solve starts cold from the slack crash.
[[nodiscard]] LpSolution solve_lp(const LpModel& model,
                                  const SimplexOptions& options = {},
                                  const LpBasis* warm_start = nullptr);

/// `options` with its time budget shrunk by the time spent since `start`,
/// for a solve that follows other work under the same allowance. An
/// exhausted budget clamps to a hair above zero (not to "unlimited"), so
/// the next solve's first deadline probe fires before any pivot; options
/// without a budget come back unchanged.
[[nodiscard]] SimplexOptions with_remaining_budget(
    const SimplexOptions& options, std::chrono::steady_clock::time_point start);

[[nodiscard]] std::string to_string(LpStatus status);

}  // namespace a2a
