// Shared basis engine of the sparse revised simplex — see simplex_core.hpp.
//
// Standard form: min c'x  s.t.  A x = b,  lo <= x <= up, with
// x = [structurals | slacks | artificials]; >= rows are negated up front so
// every slack has coefficient +1, equality rows get a [0,0]-fixed slack.
#include "lp/simplex_core.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace a2a::lp_detail {

SimplexCore::SimplexCore(const LpModel& model, const SimplexOptions& options,
                         const LpBasis* warm_start)
    : options_(options), m_(model.num_rows()) {
  if (options.time_limit_s > 0.0 &&
      options.time_limit_s <= kMaxBudgetSeconds) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(options.time_limit_s));
    has_deadline_ = true;
  }
  build(model, warm_start);
}

bool SimplexCore::time_exceeded() {
  if (!has_deadline_) return false;
  if (!time_expired_ && std::chrono::steady_clock::now() >= deadline_) {
    time_expired_ = true;
  }
  return time_expired_;
}

void SimplexCore::build(const LpModel& model, const LpBasis* warm_start) {
  const int nv = model.num_variables();
  n_structural_ = nv;
  row_sign_.assign(static_cast<std::size_t>(m_), 1.0);
  rhs_.resize(static_cast<std::size_t>(m_));
  for (int r = 0; r < m_; ++r) {
    const auto type = model.row_type(r);
    row_sign_[r] = type == RowType::kGreaterEqual ? -1.0 : 1.0;
    rhs_[r] = row_sign_[r] * model.rhs(r);
  }
  cols_.reset(m_, model.num_nonzeros() + static_cast<std::size_t>(m_));
  lo_.reserve(static_cast<std::size_t>(nv + m_));
  up_.reserve(static_cast<std::size_t>(nv + m_));
  cost_.reserve(static_cast<std::size_t>(nv + m_));
  const double obj_sign = model.sense() == Sense::kMaximize ? -1.0 : 1.0;
  for (int j = 0; j < nv; ++j) {
    cols_.begin_column();
    lo_.push_back(model.lower(j));
    up_.push_back(model.upper(j));
    cost_.push_back(obj_sign * model.objective(j));
    for (const auto& entry : model.column(j)) {
      cols_.push(entry.row, row_sign_[static_cast<std::size_t>(entry.row)] * entry.value);
    }
  }
  // Slack columns: one per row; equality rows get a fixed [0,0] slack.
  for (int r = 0; r < m_; ++r) {
    cols_.begin_column();
    cols_.push(r, 1.0);
    const bool eq = model.row_type(r) == RowType::kEqual;
    lo_.push_back(0.0);
    up_.push_back(eq ? 0.0 : kInfinity);
    cost_.push_back(0.0);
  }

  needs_phase1_ = false;
  if (warm_start != nullptr && !warm_start->empty() &&
      warm_start->compatible(nv, m_) && try_warm_start(*warm_start)) {
    warm_started_ = true;
  } else {
    crash_basis();
  }
  csr_.build_from(cols_);
  row_order_ = cols_.row_order();
  touch_stamp_.assign(static_cast<std::size_t>(num_vars()), 0);
  work_cost_ = cost_;
  work_cost_.resize(static_cast<std::size_t>(num_vars()), 0.0);
  weight_.assign(static_cast<std::size_t>(num_vars()), 1.0);
  d_.assign(static_cast<std::size_t>(num_vars()), 0.0);
  score_.assign(static_cast<std::size_t>(num_vars()), 0.0);
  if (warm_started_) {
    // try_warm_start already factored lu_ and computed x_basic_; only the
    // reduced costs remain (phase-2 costs, what phase 2 prices with).
    recompute_reduced_costs();
  } else {
    refactorize();
  }
}

/// Attempts to adopt a previous basis: factorizable, and primal feasible
/// once the basic values are derived from the stored nonbasic statuses.
/// Returns false — leaving no trace, so build() crashes cold — when the
/// basis is structurally broken, singular, or puts a basic value out of its
/// bounds (the model's rhs or bounds moved under it).
bool SimplexCore::try_warm_start(const LpBasis& warm) {
  std::vector<VarState> state(static_cast<std::size_t>(num_vars()));
  std::vector<int> basic;
  basic.reserve(static_cast<std::size_t>(m_));
  for (int j = 0; j < num_vars(); ++j) {
    const LpVarStatus st =
        j < n_structural_ ? warm.variables[static_cast<std::size_t>(j)]
                          : warm.rows[static_cast<std::size_t>(j - n_structural_)];
    state[j] = static_cast<VarState>(st);
    if (state[j] == VarState::kBasic) {
      basic.push_back(j);
    } else if (state[j] == VarState::kAtUpper && up_[j] >= kInfinity) {
      state[j] = VarState::kAtLower;  // no finite upper bound to sit at
    }
  }
  if (static_cast<int>(basic.size()) != m_) return false;
  // Factor straight into the member LU: on success it is the live basis
  // factorization (build() skips its refactorize), on failure the cold
  // crash path refactorizes over it anyway.
  try {
    lu_.factor(cols_, basic, /*prepare_updates=*/true);
  } catch (const SolverError&) {
    return false;
  }
  // x_N from the stored statuses, then x_B = B^-1 (b - A_N x_N).
  std::vector<double> xn(static_cast<std::size_t>(num_vars()), 0.0);
  std::vector<double> residual = rhs_;
  for (int j = 0; j < num_vars(); ++j) {
    if (state[j] == VarState::kBasic) continue;
    xn[j] = state[j] == VarState::kAtUpper ? up_[j] : lo_[j];
    if (xn[j] == 0.0) continue;
    for (int k = cols_.col_begin(j); k < cols_.col_end(j); ++k) {
      residual[static_cast<std::size_t>(cols_.entry_row(k))] -=
          cols_.entry_value(k) * xn[j];
    }
  }
  lu_.ftran(residual, lu_scratch_);
  const double tol = 16.0 * kLpFeasibilityTol;
  for (int i = 0; i < m_; ++i) {
    const int j = basic[static_cast<std::size_t>(i)];
    if (residual[i] < lo_[j] - tol * std::max(1.0, std::abs(lo_[j])) ||
        residual[i] > up_[j] + tol * std::max(1.0, std::abs(up_[j]))) {
      return false;
    }
  }
  // Adopt: clamp the round-off and skip phase 1 outright.
  state_ = std::move(state);
  basic_ = std::move(basic);
  x_nonbasic_value_ = std::move(xn);
  x_basic_.resize(static_cast<std::size_t>(m_));
  for (int i = 0; i < m_; ++i) {
    const int j = basic_[static_cast<std::size_t>(i)];
    x_basic_[i] = std::clamp(residual[i], lo_[j], up_[j]);
  }
  return true;
}

/// Cold start: every nonbasic at its lower bound; slack basis where the
/// slack can absorb the residual, artificials (-> phase 1) elsewhere.
void SimplexCore::crash_basis() {
  state_.assign(static_cast<std::size_t>(num_vars()), VarState::kAtLower);
  x_nonbasic_value_.assign(static_cast<std::size_t>(num_vars()), 0.0);
  for (int j = 0; j < num_vars(); ++j) x_nonbasic_value_[j] = lo_[j];
  std::vector<double> residual = rhs_;
  for (int j = 0; j < n_structural_; ++j) {
    const double xj = x_nonbasic_value_[j];
    if (xj == 0.0) continue;
    for (int k = cols_.col_begin(j); k < cols_.col_end(j); ++k) {
      residual[static_cast<std::size_t>(cols_.entry_row(k))] -= cols_.entry_value(k) * xj;
    }
  }
  basic_.resize(static_cast<std::size_t>(m_));
  x_basic_.assign(static_cast<std::size_t>(m_), 0.0);
  for (int r = 0; r < m_; ++r) {
    const int slack = n_structural_ + r;
    if (up_[slack] > 0.0 && residual[r] >= 0.0) {
      basic_[r] = slack;
      x_basic_[r] = residual[r];
      state_[slack] = VarState::kBasic;
    } else {
      // Artificial with coefficient matching the residual sign so its
      // basic value is non-negative.
      const int j = cols_.begin_column();
      cols_.push(r, residual[r] < 0.0 ? -1.0 : 1.0);
      lo_.push_back(0.0);
      up_.push_back(kInfinity);
      cost_.push_back(0.0);
      state_.push_back(VarState::kBasic);
      x_nonbasic_value_.push_back(0.0);
      basic_[r] = j;
      x_basic_[r] = std::abs(residual[r]);
      needs_phase1_ = true;
    }
  }
}

void SimplexCore::set_phase_costs(bool phase1) {
  if (phase1) {
    work_cost_.assign(static_cast<std::size_t>(num_vars()), 0.0);
    for (int j = n_structural_ + m_; j < num_vars(); ++j) work_cost_[j] = 1.0;
  } else {
    work_cost_ = cost_;
    work_cost_.resize(static_cast<std::size_t>(num_vars()), 0.0);
  }
  weight_.assign(static_cast<std::size_t>(num_vars()), 1.0);
  pricing_cursor_ = 0;
  recompute_reduced_costs();
}

double SimplexCore::phase_objective() const {
  double obj = 0.0;
  for (int r = 0; r < m_; ++r) {
    obj += work_cost_[static_cast<std::size_t>(basic_[r])] * x_basic_[r];
  }
  for (int j = 0; j < num_vars(); ++j) {
    if (state_[j] != VarState::kBasic && work_cost_[j] != 0.0) {
      obj += work_cost_[j] * x_nonbasic_value_[j];
    }
  }
  return obj;
}

// ---- linear algebra ---------------------------------------------------------

/// x <- B^-1 x. Input indexed by row; output indexed by basis position.
/// The Forrest–Tomlin pivot history lives inside lu_.
void SimplexCore::ftran_full(std::vector<double>& x, bool save_spike) {
  lu_.ftran(x, lu_scratch_, save_spike ? &ft_spike_ : nullptr);
}

/// y <- B^-T y. Input indexed by basis position; output indexed by row.
void SimplexCore::btran_full(std::vector<double>& y) {
  lu_.btran(y, lu_scratch_);
}

void SimplexCore::compute_column(int j, std::vector<double>& alpha) {
  std::fill(alpha.begin(), alpha.end(), 0.0);
  for (int k = cols_.col_begin(j); k < cols_.col_end(j); ++k) {
    alpha[static_cast<std::size_t>(cols_.entry_row(k))] += cols_.entry_value(k);
  }
  ftran_full(alpha, /*save_spike=*/true);
}

void SimplexCore::compute_pivot_row(int row, std::vector<double>& rho,
                                    std::vector<double>& accum,
                                    std::vector<int>& touched) {
  std::fill(rho.begin(), rho.end(), 0.0);
  rho[static_cast<std::size_t>(row)] = 1.0;
  btran_full(rho);
  int live_rows = 0;
  for (int i = 0; i < m_; ++i) {
    if (std::abs(rho[i]) >= kLpDropTol) ++live_rows;
  }
  price_out(rho, accum, touched, live_rows >= kColumnPriceDensity * m_);
}

void SimplexCore::price_out(std::vector<double>& rho, std::vector<double>& accum,
                            std::vector<int>& touched, bool column_wise) {
  // A dropped rho_i adds (+-0) * a_ij to a column-wise sum, which leaves a
  // sum that starts at +0 unchanged; the row-wise path skips row i.
  for (double& ri : rho) {
    if (std::abs(ri) < kLpDropTol) ri = 0.0;
  }
  touched.clear();
  if (column_wise) {
    ++stats_.column_priced_rows;
    for (int j = 0; j < num_vars(); ++j) {
      if (state_[static_cast<std::size_t>(j)] == VarState::kBasic || fixed(j)) {
        continue;
      }
      double sum = 0.0;
      for (int k = cols_.col_begin(j); k < cols_.col_end(j); ++k) {
        const int p = row_order_[static_cast<std::size_t>(k)];
        sum += rho[static_cast<std::size_t>(cols_.entry_row(p))] *
               cols_.entry_value(p);
      }
      if (sum != 0.0) {
        accum[static_cast<std::size_t>(j)] = sum;
        touched.push_back(j);
      }
    }
    return;
  }
  if (++touch_epoch_ == 0) {  // wrapped: no stale stamp may match
    std::fill(touch_stamp_.begin(), touch_stamp_.end(), 0);
    touch_epoch_ = 1;
  }
  for (int i = 0; i < m_; ++i) {
    const double ri = rho[i];
    if (ri == 0.0) continue;
    for (int k = csr_.row_begin(i); k < csr_.row_end(i); ++k) {
      const auto j = static_cast<std::size_t>(csr_.entry_col(k));
      if (touch_stamp_[j] != touch_epoch_) {
        touch_stamp_[j] = touch_epoch_;
        touched.push_back(static_cast<int>(j));
      }
      accum[j] += ri * csr_.entry_value(k);
    }
  }
}

bool SimplexCore::update_factors(int row) {
  // ft_spike_ was captured by the compute_column(entering) of this very
  // pivot; no solves have touched it since.
  if (!lu_.update(row, ft_spike_, options_.ft_diag_tol, kLpDropTol)) {
    ++stats_.ft_refusals;
    return true;  // unstable transformed diagonal: refactorize
  }
  ++stats_.ft_updates;
  if (lu_.updates() >= options_.ft_update_limit) return true;
  const auto base = static_cast<double>(std::max<std::size_t>(lu_.base_fill(), 64));
  return static_cast<double>(lu_.update_work()) >
         options_.refactor_fill_growth * base;
}

/// Fresh LU of the current basis; resets the Forrest–Tomlin pivot history
/// and recomputes the basic values and reduced costs (bounding numerical
/// drift).
void SimplexCore::refactorize() {
  try {
    lu_.factor(cols_, basic_, /*prepare_updates=*/true);
  } catch (const SolverError& e) {
    // Re-throw with where-the-run-was context; the LU layer only knows the
    // matrix, not the solve.
    throw SolverError(e.what(),
                      SolverErrorContext{iterations_, stats_.refactorizations,
                                         stats_.ft_updates, stats_.ft_refusals,
                                         stats_.bland_episodes,
                                         stats_.degenerate_pivots,
                                         stats_.column_priced_rows, phase_});
  }
  ++stats_.refactorizations;
  // x_B = B^-1 (b - A_N x_N).
  std::vector<double> residual = rhs_;
  for (int j = 0; j < num_vars(); ++j) {
    if (state_[j] == VarState::kBasic) continue;
    const double xj = x_nonbasic_value_[j];
    if (xj == 0.0) continue;
    for (int k = cols_.col_begin(j); k < cols_.col_end(j); ++k) {
      residual[static_cast<std::size_t>(cols_.entry_row(k))] -= cols_.entry_value(k) * xj;
    }
  }
  lu_.ftran(residual, lu_scratch_);
  x_basic_ = std::move(residual);
  recompute_reduced_costs();
}

/// d_j = c_j - y' A_j for every nonbasic j, with y = B^-T c_B; refreshes
/// every pricing score on the way.
void SimplexCore::recompute_reduced_costs() {
  std::vector<double> y(static_cast<std::size_t>(m_));
  for (int i = 0; i < m_; ++i) {
    y[i] = work_cost_[static_cast<std::size_t>(basic_[i])];
  }
  btran_full(y);
  for (int j = 0; j < num_vars(); ++j) {
    if (state_[j] == VarState::kBasic) {
      d_[j] = 0.0;
    } else {
      double dj = work_cost_[j];
      for (int k = cols_.col_begin(j); k < cols_.col_end(j); ++k) {
        dj -= y[static_cast<std::size_t>(cols_.entry_row(k))] * cols_.entry_value(k);
      }
      d_[j] = dj;
    }
    refresh_score(j);
  }
}

void SimplexCore::finish(LpSolution& out, const LpModel& model,
                         std::chrono::steady_clock::time_point start) {
  out.iterations = iterations_;
  out.values.assign(static_cast<std::size_t>(n_structural_), 0.0);
  for (int j = 0; j < n_structural_; ++j) {
    out.values[j] = x_nonbasic_value_[j];
  }
  for (int r = 0; r < m_; ++r) {
    const int j = basic_[static_cast<std::size_t>(r)];
    if (j < n_structural_) out.values[j] = x_basic_[static_cast<std::size_t>(r)];
  }
  double obj = 0.0;
  for (int j = 0; j < n_structural_; ++j) {
    obj += model.objective(j) * out.values[j];
  }
  out.objective = obj;
  // Export the basis for warm starts. An artificial still basic (at zero,
  // on a redundant row) is represented by marking that row basic; a
  // re-import that this leaves singular or infeasible starts cold.
  out.basis.variables.resize(static_cast<std::size_t>(n_structural_));
  for (int j = 0; j < n_structural_; ++j) {
    out.basis.variables[j] = static_cast<LpVarStatus>(state_[j]);
  }
  out.basis.rows.resize(static_cast<std::size_t>(m_));
  for (int r = 0; r < m_; ++r) {
    out.basis.rows[r] = static_cast<LpVarStatus>(state_[n_structural_ + r]);
  }
  for (int r = 0; r < m_; ++r) {
    if (basic_[static_cast<std::size_t>(r)] >= n_structural_ + m_) {
      out.basis.rows[r] = LpVarStatus::kBasic;
    }
  }
  out.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  stats_.iterations = iterations_;
  out.stats = stats_;
  // Push this core run's counters into the global metrics ONCE, here — the
  // iteration loops stay atomic-free. A collapsed attempt never gets here;
  // merge_failed_attempt() pushes its work beside the cold retry's.
  A2A_COUNTER("lp.iterations").add(static_cast<std::uint64_t>(stats_.iterations));
  A2A_COUNTER("lp.refactorizations")
      .add(static_cast<std::uint64_t>(stats_.refactorizations));
  A2A_COUNTER("lp.ft_updates").add(static_cast<std::uint64_t>(stats_.ft_updates));
  A2A_COUNTER("lp.ft_refusals").add(static_cast<std::uint64_t>(stats_.ft_refusals));
  A2A_COUNTER("lp.bland_episodes")
      .add(static_cast<std::uint64_t>(stats_.bland_episodes));
  A2A_COUNTER("lp.degenerate_pivots")
      .add(static_cast<std::uint64_t>(stats_.degenerate_pivots));
  A2A_COUNTER("lp.column_priced_rows")
      .add(static_cast<std::uint64_t>(stats_.column_priced_rows));
  A2A_HISTOGRAM("lp.solve.seconds").observe_seconds(out.solve_seconds);
}

}  // namespace a2a::lp_detail
