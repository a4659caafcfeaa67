#include "lp/presolve.hpp"

#include <algorithm>
#include <cmath>

namespace a2a {

namespace {

/// Feasibility slack scaled to the magnitude of the bound it guards.
double scaled(double tol, double bound) {
  return tol * std::max(1.0, std::abs(bound));
}

}  // namespace

Presolve::Result Presolve::run(const LpModel& model) {
  const int nv = model.num_variables();
  const int m = model.num_rows();
  orig_vars_ = nv;
  orig_rows_ = m;
  stats_ = {};
  const double ftol = kLpFeasibilityTol;

  std::vector<double> lo(static_cast<std::size_t>(nv));
  std::vector<double> up(static_cast<std::size_t>(nv));
  std::vector<double> rhs(static_cast<std::size_t>(m));
  for (int j = 0; j < nv; ++j) {
    lo[static_cast<std::size_t>(j)] = model.lower(j);
    up[static_cast<std::size_t>(j)] = model.upper(j);
  }
  for (int r = 0; r < m; ++r) rhs[static_cast<std::size_t>(r)] = model.rhs(r);

  // Row-wise mirror for empty/singleton detection (columns merge duplicate
  // rows, so every (row, var) appears once — but a merge can leave an exact
  // zero, which the scans below must skip).
  struct RowEntry {
    int var;
    double coeff;
  };
  std::vector<std::vector<RowEntry>> rows(static_cast<std::size_t>(m));
  for (int j = 0; j < nv; ++j) {
    for (const auto& e : model.column(j)) {
      rows[static_cast<std::size_t>(e.row)].push_back(RowEntry{j, e.value});
    }
  }

  std::vector<char> live_var(static_cast<std::size_t>(nv), 1);
  std::vector<char> live_row(static_cast<std::size_t>(m), 1);
  eliminated_value_.assign(static_cast<std::size_t>(nv), 0.0);
  eliminated_at_upper_.assign(static_cast<std::size_t>(nv), 0);
  lower_row_.assign(static_cast<std::size_t>(nv), -1);
  upper_row_.assign(static_cast<std::size_t>(nv), -1);

  const double obj_sign = model.sense() == Sense::kMaximize ? -1.0 : 1.0;
  const auto eliminate = [&](int j, double v, bool at_upper) {
    live_var[static_cast<std::size_t>(j)] = 0;
    eliminated_value_[static_cast<std::size_t>(j)] = v;
    eliminated_at_upper_[static_cast<std::size_t>(j)] = at_upper ? 1 : 0;
    if (v != 0.0) {
      for (const auto& e : model.column(j)) {
        if (live_row[static_cast<std::size_t>(e.row)]) {
          rhs[static_cast<std::size_t>(e.row)] -= e.value * v;
        }
      }
    }
  };

  // Reduce to a fixed point: fixing a variable can empty a row, dropping a
  // singleton row tightens a bound which can fix a variable, and so on. The
  // pass bound is a backstop; MCF cascades settle in two or three.
  bool infeasible = false;
  for (int pass = 0; pass < 16 && !infeasible; ++pass) {
    bool changed = false;

    for (int j = 0; j < nv; ++j) {
      if (!live_var[static_cast<std::size_t>(j)]) continue;
      const double lj = lo[static_cast<std::size_t>(j)];
      const double uj = up[static_cast<std::size_t>(j)];
      if (uj - lj <= 1e-11 * std::max(1.0, std::abs(lj))) {
        eliminate(j, lj == uj ? lj : 0.5 * (lj + uj), false);
        ++stats_.fixed_variables;
        changed = true;
        continue;
      }
      bool has_live_row = false;
      for (const auto& e : model.column(j)) {
        if (live_row[static_cast<std::size_t>(e.row)] && e.value != 0.0) {
          has_live_row = true;
          break;
        }
      }
      if (!has_live_row) {
        // Empty column: park it at its objective-optimal bound. A negative
        // reduced direction with no finite bound is left for the solver —
        // it is an unboundedness certificate only if the rest is feasible,
        // which presolve cannot certify.
        const double cmin = obj_sign * model.objective(j);
        if (cmin >= 0.0) {
          eliminate(j, lj, false);
        } else if (uj < kInfinity) {
          eliminate(j, uj, true);
        } else {
          continue;
        }
        ++stats_.empty_columns;
        changed = true;
      }
    }

    for (int r = 0; r < m; ++r) {
      if (!live_row[static_cast<std::size_t>(r)]) continue;
      int live_entries = 0;
      const RowEntry* single = nullptr;
      for (const auto& e : rows[static_cast<std::size_t>(r)]) {
        if (!live_var[static_cast<std::size_t>(e.var)] || e.coeff == 0.0) continue;
        ++live_entries;
        single = &e;
        if (live_entries > 1) break;
      }
      const double b = rhs[static_cast<std::size_t>(r)];
      const RowType type = model.row_type(r);
      if (live_entries == 0) {
        // Every variable substituted away: the row is a constant.
        const double tol = scaled(ftol, b);
        const bool ok = type == RowType::kLessEqual  ? 0.0 <= b + tol
                        : type == RowType::kGreaterEqual ? 0.0 >= b - tol
                                                         : std::abs(b) <= tol;
        if (!ok) {
          infeasible = true;
          break;
        }
        live_row[static_cast<std::size_t>(r)] = 0;
        ++stats_.empty_rows;
        changed = true;
      } else if (live_entries == 1) {
        // A singleton row is a bound in disguise.
        const int j = single->var;
        const double a = single->coeff;
        double& lj = lo[static_cast<std::size_t>(j)];
        double& uj = up[static_cast<std::size_t>(j)];
        const double v = b / a;
        const bool upper_side = (type == RowType::kLessEqual && a > 0.0) ||
                                (type == RowType::kGreaterEqual && a < 0.0);
        if (type == RowType::kEqual) {
          if (v < lj - scaled(ftol, lj) || v > uj + scaled(ftol, uj)) {
            infeasible = true;
            break;
          }
          const double vc = std::clamp(v, lj, uj);
          lj = uj = vc;
          lower_row_[static_cast<std::size_t>(j)] = r;
          upper_row_[static_cast<std::size_t>(j)] = r;
          ++stats_.tightened_bounds;
        } else if (upper_side) {
          if (v < lj - scaled(ftol, lj)) {
            infeasible = true;
            break;
          }
          const double nb = std::max(v, lj);
          if (nb < uj) {
            uj = nb;
            upper_row_[static_cast<std::size_t>(j)] = r;
            ++stats_.tightened_bounds;
          }
        } else {
          if (v > uj + scaled(ftol, uj)) {
            infeasible = true;
            break;
          }
          const double nb = std::min(v, uj);
          if (nb > lj) {
            lj = nb;
            lower_row_[static_cast<std::size_t>(j)] = r;
            ++stats_.tightened_bounds;
          }
        }
        live_row[static_cast<std::size_t>(r)] = 0;
        ++stats_.singleton_rows;
        changed = true;
      }
    }
    if (!changed) break;
  }
  if (infeasible) return Result::kInfeasible;

  var_map_.assign(static_cast<std::size_t>(nv), -1);
  row_map_.assign(static_cast<std::size_t>(m), -1);
  int reduced_rows = 0;
  for (int r = 0; r < m; ++r) {
    if (live_row[static_cast<std::size_t>(r)]) {
      row_map_[static_cast<std::size_t>(r)] = reduced_rows++;
    }
  }
  if (reduced_rows == 0) {
    // Unconstrained: any survivor is an empty column that resisted
    // elimination — an improving direction with no finite bound.
    for (int j = 0; j < nv; ++j) {
      if (!live_var[static_cast<std::size_t>(j)]) continue;
      const double cmin = obj_sign * model.objective(j);
      if (cmin < 0.0 && up[static_cast<std::size_t>(j)] >= kInfinity) {
        return Result::kUnbounded;
      }
      const bool at_upper = cmin < 0.0;
      eliminate(j, at_upper ? up[static_cast<std::size_t>(j)]
                            : lo[static_cast<std::size_t>(j)],
                at_upper);
      ++stats_.empty_columns;
    }
    return Result::kSolved;
  }
  if (!stats_.any()) return Result::kUnchanged;

  int reduced_vars = 0;
  for (int j = 0; j < nv; ++j) {
    if (live_var[static_cast<std::size_t>(j)]) {
      var_map_[static_cast<std::size_t>(j)] = reduced_vars++;
    }
  }
  reduced_ = LpModel(model.sense());
  for (int j = 0; j < nv; ++j) {
    if (var_map_[static_cast<std::size_t>(j)] < 0) continue;
    reduced_.add_variable(lo[static_cast<std::size_t>(j)],
                          up[static_cast<std::size_t>(j)], model.objective(j));
  }
  for (int r = 0; r < m; ++r) {
    if (row_map_[static_cast<std::size_t>(r)] < 0) continue;
    reduced_.add_row(model.row_type(r), rhs[static_cast<std::size_t>(r)]);
  }
  for (int j = 0; j < nv; ++j) {
    const int rj = var_map_[static_cast<std::size_t>(j)];
    if (rj < 0) continue;
    for (const auto& e : model.column(j)) {
      const int rr = row_map_[static_cast<std::size_t>(e.row)];
      if (rr < 0 || e.value == 0.0) continue;
      reduced_.add_coefficient(rr, rj, e.value);
    }
  }
  return Result::kReduced;
}

bool Presolve::map_warm_basis(const LpBasis& full, LpBasis* out) const {
  if (!full.compatible(orig_vars_, orig_rows_)) return false;
  LpBasis b;
  b.variables.reserve(static_cast<std::size_t>(reduced_.num_variables()));
  b.rows.reserve(static_cast<std::size_t>(reduced_.num_rows()));
  const auto active = [&](int r) {
    return r >= 0 && full.rows[static_cast<std::size_t>(r)] != LpVarStatus::kBasic;
  };
  int basic = 0;
  for (int j = 0; j < orig_vars_; ++j) {
    LpVarStatus st = full.variables[static_cast<std::size_t>(j)];
    // postsolve()'s lift in reverse: a basic column whose implied-bound row
    // is active (nonbasic) sits at that bound.
    if (st == LpVarStatus::kBasic) {
      if (active(lower_row_[static_cast<std::size_t>(j)])) {
        st = LpVarStatus::kAtLower;
      } else if (active(upper_row_[static_cast<std::size_t>(j)])) {
        st = LpVarStatus::kAtUpper;
      }
    }
    if (var_map_[static_cast<std::size_t>(j)] < 0) {
      // An eliminated variable that was basic takes a basis slot with it;
      // the projection cannot be square any more.
      if (st == LpVarStatus::kBasic) return false;
      continue;
    }
    b.variables.push_back(st);
    if (st == LpVarStatus::kBasic) ++basic;
  }
  for (int r = 0; r < orig_rows_; ++r) {
    if (row_map_[static_cast<std::size_t>(r)] < 0) continue;
    const LpVarStatus st = full.rows[static_cast<std::size_t>(r)];
    b.rows.push_back(st);
    if (st == LpVarStatus::kBasic) ++basic;
  }
  if (basic != reduced_.num_rows()) return false;
  *out = std::move(b);
  return true;
}

void Presolve::postsolve(const LpModel& original, const LpSolution& reduced_sol,
                         LpSolution* out) const {
  out->status = reduced_sol.status;
  out->iterations = reduced_sol.iterations;
  out->solve_seconds = reduced_sol.solve_seconds;
  out->warm_started = reduced_sol.warm_started;
  out->stats = reduced_sol.stats;
  out->values.assign(static_cast<std::size_t>(orig_vars_), 0.0);
  for (int j = 0; j < orig_vars_; ++j) {
    const int rj = var_map_.empty() ? -1 : var_map_[static_cast<std::size_t>(j)];
    out->values[static_cast<std::size_t>(j)] =
        rj >= 0 && rj < static_cast<int>(reduced_sol.values.size())
            ? reduced_sol.values[static_cast<std::size_t>(rj)]
            : eliminated_value_[static_cast<std::size_t>(j)];
  }
  double obj = 0.0;
  for (int j = 0; j < orig_vars_; ++j) {
    obj += original.objective(j) * out->values[static_cast<std::size_t>(j)];
  }
  out->objective = obj;
  // Full-model basis: eliminated columns nonbasic at the bound they were
  // parked on, dropped rows basic slack (their slack absorbs whatever the
  // row's activity is — exactly the redundant/eliminated-row geometry). A
  // column at a bound a singleton row implied is the exception: the
  // original model may not have that bound, so the column is exported basic
  // and the row, active there, nonbasic with its slack at zero. The swap is
  // one for one, so the basis stays square.
  const bool have_reduced_basis =
      reduced_sol.basis.compatible(reduced_.num_variables(), reduced_.num_rows());
  out->basis.variables.assign(static_cast<std::size_t>(orig_vars_),
                              LpVarStatus::kAtLower);
  out->basis.rows.assign(static_cast<std::size_t>(orig_rows_),
                         LpVarStatus::kBasic);
  for (int j = 0; j < orig_vars_; ++j) {
    const int rj = var_map_.empty() ? -1 : var_map_[static_cast<std::size_t>(j)];
    LpVarStatus st = LpVarStatus::kAtLower;
    if (rj >= 0) {
      if (!have_reduced_basis) continue;
      st = reduced_sol.basis.variables[static_cast<std::size_t>(rj)];
    } else if (eliminated_at_upper_[static_cast<std::size_t>(j)] != 0) {
      st = LpVarStatus::kAtUpper;
    }
    const int implied_row =
        st == LpVarStatus::kBasic       ? -1
        : st == LpVarStatus::kAtUpper ? upper_row_[static_cast<std::size_t>(j)]
                                        : lower_row_[static_cast<std::size_t>(j)];
    if (implied_row >= 0) {
      st = LpVarStatus::kBasic;
      out->basis.rows[static_cast<std::size_t>(implied_row)] = LpVarStatus::kAtLower;
    }
    out->basis.variables[static_cast<std::size_t>(j)] = st;
  }
  for (int r = 0; r < orig_rows_; ++r) {
    const int rr = row_map_.empty() ? -1 : row_map_[static_cast<std::size_t>(r)];
    if (rr >= 0 && have_reduced_basis) {
      out->basis.rows[static_cast<std::size_t>(r)] =
          reduced_sol.basis.rows[static_cast<std::size_t>(rr)];
    }
  }
}

}  // namespace a2a
