// The original dense-inverse simplex, kept verbatim as the reference
// implementation behind solve_lp_dense(): an explicit B^-1 with product-form
// pivot updates, periodic dense-LU refactorization, and full-scan Dantzig
// pricing. It is the independent oracle: test_simplex, test_forrest_tomlin
// and fuzz_lp check every shipped solve_lp() path against it (most fuzz_lp
// families have no other), and bench_lp times it as the dense leg.
#include "reference/dense_simplex.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "reference/lu.hpp"
#include "reference/matrix.hpp"

namespace a2a {

namespace {

enum class VarState : unsigned char { kBasic, kAtLower, kAtUpper };

/// Pivots between dense-LU refactorizations of the explicit inverse
/// (product-form updates in between; flow bases stay accurate).
constexpr int kRefactorInterval = 4000;

/// Internal solver working on the standard form
///   min c'x  s.t.  A x = b,  lo <= x <= up
/// where x = [structurals | slacks | artificials]. Rows of type >= are
/// negated up front so every slack has coefficient +1; equality rows get a
/// slack fixed to [0, 0].
class DenseSimplex {
 public:
  DenseSimplex(const LpModel& model, const SimplexOptions& options)
      : options_(options), m_(static_cast<std::size_t>(model.num_rows())) {
    build(model);
  }

  LpSolution run(const LpModel& model) {
    const auto start = std::chrono::steady_clock::now();
    LpSolution out;
    // Phase 1: minimize artificial infeasibility.
    if (needs_phase1_) {
      set_phase1_costs();
      const LpStatus s = iterate();
      if (s != LpStatus::kOptimal) {
        out.status = s == LpStatus::kUnbounded ? LpStatus::kInfeasible : s;
        finish(out, model, start);
        return out;
      }
      if (phase_objective() > 1e-6) {
        out.status = LpStatus::kInfeasible;
        finish(out, model, start);
        return out;
      }
      fix_artificials();
    }
    set_phase2_costs();
    out.status = iterate();
    finish(out, model, start);
    return out;
  }

 private:
  // ---- model construction -------------------------------------------------

  void build(const LpModel& model) {
    const int nv = model.num_variables();
    n_structural_ = static_cast<std::size_t>(nv);
    // Row sign normalization: >= rows are multiplied by -1.
    row_sign_.assign(m_, 1.0);
    rhs_.resize(m_);
    for (std::size_t r = 0; r < m_; ++r) {
      const auto type = model.row_type(static_cast<int>(r));
      row_sign_[r] = type == RowType::kGreaterEqual ? -1.0 : 1.0;
      rhs_[r] = row_sign_[r] * model.rhs(static_cast<int>(r));
    }
    // Structural columns.
    const std::size_t total = n_structural_ + m_;  // + artificials later
    col_rows_.resize(total);
    col_vals_.resize(total);
    lo_.resize(total);
    up_.resize(total);
    cost_.assign(total, 0.0);
    const double obj_sign = model.sense() == Sense::kMaximize ? -1.0 : 1.0;
    for (int j = 0; j < nv; ++j) {
      const std::size_t js = static_cast<std::size_t>(j);
      lo_[js] = model.lower(j);
      up_[js] = model.upper(j);
      cost_[js] = obj_sign * model.objective(j);
      for (const auto& entry : model.column(j)) {
        const std::size_t r = static_cast<std::size_t>(entry.row);
        col_rows_[js].push_back(static_cast<int>(r));
        col_vals_[js].push_back(row_sign_[r] * entry.value);
      }
    }
    // Slack columns: one per row; equality rows get a fixed [0,0] slack.
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t j = n_structural_ + r;
      col_rows_[j] = {static_cast<int>(r)};
      col_vals_[j] = {1.0};
      const bool eq = model.row_type(static_cast<int>(r)) == RowType::kEqual;
      lo_[j] = 0.0;
      up_[j] = eq ? 0.0 : kInfinity;
    }
    // Initial point: every structural at the bound of smaller magnitude
    // towards feasibility — we simply use the lower bound.
    state_.assign(total, VarState::kAtLower);
    x_nonbasic_value_.assign(total, 0.0);
    for (std::size_t j = 0; j < total; ++j) x_nonbasic_value_[j] = lo_[j];
    // Residual r = b - A x_N with all candidates nonbasic.
    std::vector<double> residual = rhs_;
    for (std::size_t j = 0; j < n_structural_; ++j) {
      const double xj = x_nonbasic_value_[j];
      if (xj == 0.0) continue;
      for (std::size_t k = 0; k < col_rows_[j].size(); ++k) {
        residual[static_cast<std::size_t>(col_rows_[j][k])] -= col_vals_[j][k] * xj;
      }
    }
    // Choose the initial basis: slack where it can absorb the residual,
    // otherwise an artificial.
    basic_.resize(m_);
    x_basic_.assign(m_, 0.0);
    needs_phase1_ = false;
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t slack = n_structural_ + r;
      const bool slack_ok = up_[slack] > 0.0 && residual[r] >= 0.0;
      if (slack_ok) {
        basic_[r] = static_cast<int>(slack);
        x_basic_[r] = residual[r];
        state_[slack] = VarState::kBasic;
      } else {
        // Artificial with coefficient matching the residual sign so its
        // basic value is non-negative.
        const double sign = residual[r] < 0.0 ? -1.0 : 1.0;
        const std::size_t j = add_artificial(r, sign);
        basic_[r] = static_cast<int>(j);
        x_basic_[r] = std::abs(residual[r]);
        state_[j] = VarState::kBasic;
        needs_phase1_ = true;
      }
    }
    binv_ = Matrix::identity(m_);
    // Artificial columns with coefficient -1 need their basis-inverse row
    // negated; refactorize() handles the general case, do it directly here.
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t j = static_cast<std::size_t>(basic_[r]);
      if (j >= n_structural_ + m_ && col_vals_[j][0] < 0.0) {
        binv_(r, r) = -1.0;
      }
    }
  }

  std::size_t add_artificial(std::size_t row, double sign) {
    const std::size_t j = col_rows_.size();
    col_rows_.push_back({static_cast<int>(row)});
    col_vals_.push_back({sign});
    lo_.push_back(0.0);
    up_.push_back(kInfinity);
    cost_.push_back(0.0);
    state_.push_back(VarState::kAtLower);
    x_nonbasic_value_.push_back(0.0);
    return j;
  }

  [[nodiscard]] std::size_t num_vars() const { return col_rows_.size(); }
  [[nodiscard]] bool is_artificial(std::size_t j) const {
    return j >= n_structural_ + m_;
  }

  void set_phase1_costs() {
    phase1_ = true;
    work_cost_.assign(num_vars(), 0.0);
    for (std::size_t j = n_structural_ + m_; j < num_vars(); ++j) {
      work_cost_[j] = 1.0;
    }
  }

  void set_phase2_costs() {
    phase1_ = false;
    work_cost_ = cost_;
    work_cost_.resize(num_vars(), 0.0);
  }

  /// After phase 1: pin every artificial to zero so it can never re-enter;
  /// basic artificials at value 0 are left in place (their rows are
  /// redundant) but their bounds prevent movement.
  void fix_artificials() {
    for (std::size_t j = n_structural_ + m_; j < num_vars(); ++j) {
      up_[j] = 0.0;
    }
  }

  [[nodiscard]] double phase_objective() const {
    double obj = 0.0;
    for (std::size_t r = 0; r < m_; ++r) {
      obj += work_cost_[static_cast<std::size_t>(basic_[r])] * x_basic_[r];
    }
    for (std::size_t j = 0; j < num_vars(); ++j) {
      if (state_[j] != VarState::kBasic && work_cost_[j] != 0.0) {
        obj += work_cost_[j] * x_nonbasic_value_[j];
      }
    }
    return obj;
  }

  // ---- linear algebra ------------------------------------------------------

  /// w = B⁻¹ A_j for a sparse column.
  void ftran(std::size_t j, std::vector<double>& w) const {
    w.assign(m_, 0.0);
    for (std::size_t k = 0; k < col_rows_[j].size(); ++k) {
      const std::size_t r = static_cast<std::size_t>(col_rows_[j][k]);
      const double v = col_vals_[j][k];
      for (std::size_t i = 0; i < m_; ++i) w[i] += binv_(i, r) * v;
    }
  }

  /// y = B⁻ᵀ c_B.
  void btran(std::vector<double>& y) const {
    y.assign(m_, 0.0);
    for (std::size_t r = 0; r < m_; ++r) {
      const double cb = work_cost_[static_cast<std::size_t>(basic_[r])];
      if (cb == 0.0) continue;
      const double* row = binv_.row(r);
      for (std::size_t i = 0; i < m_; ++i) y[i] += cb * row[i];
    }
  }

  [[nodiscard]] double reduced_cost(std::size_t j,
                                    const std::vector<double>& y) const {
    double d = work_cost_[j];
    for (std::size_t k = 0; k < col_rows_[j].size(); ++k) {
      d -= y[static_cast<std::size_t>(col_rows_[j][k])] * col_vals_[j][k];
    }
    return d;
  }

  void refactorize() {
    Matrix b(m_, m_);
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t j = static_cast<std::size_t>(basic_[r]);
      for (std::size_t k = 0; k < col_rows_[j].size(); ++k) {
        b(static_cast<std::size_t>(col_rows_[j][k]), r) = col_vals_[j][k];
      }
    }
    LuFactorization lu(std::move(b));
    lu.invert(binv_);
    recompute_basics();
  }

  void recompute_basics() {
    // x_B = B⁻¹ (b - A_N x_N)
    std::vector<double> residual = rhs_;
    for (std::size_t j = 0; j < num_vars(); ++j) {
      if (state_[j] == VarState::kBasic) continue;
      const double xj = x_nonbasic_value_[j];
      if (xj == 0.0) continue;
      for (std::size_t k = 0; k < col_rows_[j].size(); ++k) {
        residual[static_cast<std::size_t>(col_rows_[j][k])] -= col_vals_[j][k] * xj;
      }
    }
    for (std::size_t i = 0; i < m_; ++i) {
      const double* row = binv_.row(i);
      double acc = 0.0;
      for (std::size_t r = 0; r < m_; ++r) acc += row[r] * residual[r];
      x_basic_[i] = acc;
    }
  }

  // ---- main loop -----------------------------------------------------------

  LpStatus iterate() {
    std::vector<double> y, w;
    int since_refactor = 0;
    int stall = 0;
    bool bland = false;
    while (iterations_ < options_.max_iterations) {
      btran(y);
      // Pricing.
      std::size_t entering = SIZE_MAX;
      double best_violation = kLpOptimalityTol;
      int direction = +1;
      for (std::size_t j = 0; j < num_vars(); ++j) {
        const VarState st = state_[j];
        if (st == VarState::kBasic) continue;
        if (up_[j] - lo_[j] < 1e-30) continue;  // fixed variable
        const double d = reduced_cost(j, y);
        if (st == VarState::kAtLower && d < -best_violation) {
          if (bland) {
            entering = j;
            direction = +1;
            break;
          }
          best_violation = -d;
          entering = j;
          direction = +1;
        } else if (st == VarState::kAtUpper && d > best_violation) {
          if (bland) {
            entering = j;
            direction = -1;
            break;
          }
          best_violation = d;
          entering = j;
          direction = -1;
        } else if (bland && st == VarState::kAtLower && d < -kLpOptimalityTol) {
          entering = j;
          direction = +1;
          break;
        } else if (bland && st == VarState::kAtUpper && d > kLpOptimalityTol) {
          entering = j;
          direction = -1;
          break;
        }
      }
      if (entering == SIZE_MAX) return LpStatus::kOptimal;

      ftran(entering, w);
      // Ratio test with bound flips.
      const double dir = static_cast<double>(direction);
      double limit = up_[entering] - lo_[entering];  // bound-flip distance
      std::size_t leaving_row = SIZE_MAX;
      bool leaving_to_upper = false;
      for (std::size_t i = 0; i < m_; ++i) {
        const double wi = dir * w[i];
        const std::size_t bj = static_cast<std::size_t>(basic_[i]);
        if (wi > kLpPivotTol) {
          const double t = (x_basic_[i] - lo_[bj]) / wi;
          if (t < limit - 1e-12 ||
              (t < limit + 1e-12 && leaving_row != SIZE_MAX &&
               std::abs(wi) > std::abs(dir * w[leaving_row]))) {
            limit = std::max(t, 0.0);
            leaving_row = i;
            leaving_to_upper = false;
          }
        } else if (wi < -kLpPivotTol && up_[bj] < kInfinity) {
          const double t = (up_[bj] - x_basic_[i]) / (-wi);
          if (t < limit - 1e-12 ||
              (t < limit + 1e-12 && leaving_row != SIZE_MAX &&
               std::abs(wi) > std::abs(dir * w[leaving_row]))) {
            limit = std::max(t, 0.0);
            leaving_row = i;
            leaving_to_upper = true;
          }
        }
      }
      if (!std::isfinite(limit)) return LpStatus::kUnbounded;

      ++iterations_;
      // Move basics.
      for (std::size_t i = 0; i < m_; ++i) x_basic_[i] -= limit * dir * w[i];
      if (leaving_row == SIZE_MAX) {
        // Pure bound flip: entering variable jumps to its other bound.
        state_[entering] = direction > 0 ? VarState::kAtUpper : VarState::kAtLower;
        x_nonbasic_value_[entering] =
            direction > 0 ? up_[entering] : lo_[entering];
      } else {
        const std::size_t leaving = static_cast<std::size_t>(basic_[leaving_row]);
        state_[leaving] = leaving_to_upper ? VarState::kAtUpper : VarState::kAtLower;
        x_nonbasic_value_[leaving] = leaving_to_upper ? up_[leaving] : lo_[leaving];
        const double enter_value =
            (direction > 0 ? lo_[entering] : up_[entering]) + dir * limit;
        basic_[leaving_row] = static_cast<int>(entering);
        state_[entering] = VarState::kBasic;
        x_basic_[leaving_row] = enter_value;
        pivot_update(leaving_row, w);
        if (++since_refactor >= kRefactorInterval) {
          refactorize();
          since_refactor = 0;
        }
      }
      // Degeneracy bookkeeping: a positive step length strictly improves the
      // objective (the entering reduced cost is bounded away from zero).
      if (limit > 1e-10) {
        stall = 0;
        bland = false;
      } else if (++stall > kLpStallLimit) {
        bland = true;
      }
    }
    return LpStatus::kIterationLimit;
  }

  /// Product-form update: after the entering column w = B⁻¹A_q replaces
  /// basis column `row`, apply the eta transformation to B⁻¹.
  void pivot_update(std::size_t row, const std::vector<double>& w) {
    const double pivot = w[row];
    if (std::abs(pivot) < 1e-11) {
      refactorize();
      return;
    }
    double* pivot_row = binv_.row(row);
    const double inv = 1.0 / pivot;
    for (std::size_t c = 0; c < m_; ++c) pivot_row[c] *= inv;
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == row) continue;
      const double factor = w[i];
      if (factor == 0.0) continue;
      double* ri = binv_.row(i);
      for (std::size_t c = 0; c < m_; ++c) ri[c] -= factor * pivot_row[c];
    }
  }

  void finish(LpSolution& out, const LpModel& model,
              std::chrono::steady_clock::time_point start) {
    out.iterations = iterations_;
    out.values.assign(n_structural_, 0.0);
    for (std::size_t j = 0; j < n_structural_; ++j) {
      out.values[j] = x_nonbasic_value_[j];
    }
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t j = static_cast<std::size_t>(basic_[r]);
      if (j < n_structural_) out.values[j] = x_basic_[r];
    }
    double obj = 0.0;
    for (std::size_t j = 0; j < n_structural_; ++j) {
      obj += model.objective(static_cast<int>(j)) * out.values[j];
    }
    out.objective = obj;
    out.solve_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  }

  const SimplexOptions options_;
  const std::size_t m_;
  std::size_t n_structural_ = 0;
  bool needs_phase1_ = false;
  bool phase1_ = false;
  long long iterations_ = 0;

  // Columns (structural, then slack, then artificial).
  std::vector<std::vector<int>> col_rows_;
  std::vector<std::vector<double>> col_vals_;
  std::vector<double> lo_, up_, cost_, work_cost_;
  std::vector<double> rhs_, row_sign_;

  std::vector<int> basic_;             // basis variable per row
  std::vector<double> x_basic_;        // values of basic variables
  std::vector<VarState> state_;        // per-variable status
  std::vector<double> x_nonbasic_value_;
  Matrix binv_;
};

}  // namespace

LpSolution solve_lp_dense(const LpModel& model, const SimplexOptions& options) {
  A2A_REQUIRE(model.num_rows() > 0, "LP with no constraints");
  A2A_REQUIRE(model.num_variables() > 0, "LP with no variables");
  DenseSimplex solver(model, options);
  return solver.run(model);
}

}  // namespace a2a
