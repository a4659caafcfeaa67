#include "lp/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace a2a {

namespace {

/// Fill-reducing factorization order: repeatedly peel columns with exactly
/// one entry in still-active rows (slacks immediately, then the cascade
/// through the near-triangular network structure). Peeled pivots generate no
/// L entries and therefore no fill; only the residual "bump" is left to
/// general elimination, in the order chosen below.
std::vector<int> singleton_peel_order(const CscMatrix& a,
                                      const std::vector<int>& columns) {
  const int n = static_cast<int>(columns.size());
  const int m = a.num_rows();
  // row -> basis columns containing it.
  std::vector<int> row_ptr(static_cast<std::size_t>(m) + 1, 0);
  for (int j = 0; j < n; ++j) {
    const int col = columns[static_cast<std::size_t>(j)];
    for (int k = a.col_begin(col); k < a.col_end(col); ++k) {
      ++row_ptr[static_cast<std::size_t>(a.entry_row(k)) + 1];
    }
  }
  for (int r = 0; r < m; ++r) {
    row_ptr[static_cast<std::size_t>(r) + 1] += row_ptr[static_cast<std::size_t>(r)];
  }
  std::vector<int> row_cols(row_ptr.back());
  {
    std::vector<int> next(row_ptr.begin(), row_ptr.end() - 1);
    for (int j = 0; j < n; ++j) {
      const int col = columns[static_cast<std::size_t>(j)];
      for (int k = a.col_begin(col); k < a.col_end(col); ++k) {
        row_cols[static_cast<std::size_t>(
            next[static_cast<std::size_t>(a.entry_row(k))]++)] = j;
      }
    }
  }
  std::vector<int> active_count(static_cast<std::size_t>(n), 0);
  std::vector<char> row_active(static_cast<std::size_t>(m), 1);
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  std::vector<int> stack;
  stack.reserve(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const int col = columns[static_cast<std::size_t>(j)];
    active_count[j] = a.col_end(col) - a.col_begin(col);
    if (active_count[j] == 1) stack.push_back(j);
  }
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  while (!stack.empty()) {
    const int j = stack.back();
    stack.pop_back();
    if (used[j] || active_count[j] != 1) continue;
    const int col = columns[static_cast<std::size_t>(j)];
    int pivot_row = -1;
    for (int k = a.col_begin(col); k < a.col_end(col); ++k) {
      if (row_active[static_cast<std::size_t>(a.entry_row(k))]) {
        pivot_row = a.entry_row(k);
        break;
      }
    }
    if (pivot_row < 0) continue;  // numerically impossible; leave to the bump
    used[j] = 1;
    order.push_back(j);
    row_active[static_cast<std::size_t>(pivot_row)] = 0;
    for (int k = row_ptr[static_cast<std::size_t>(pivot_row)];
         k < row_ptr[static_cast<std::size_t>(pivot_row) + 1]; ++k) {
      const int j2 = row_cols[static_cast<std::size_t>(k)];
      if (used[j2]) continue;
      if (--active_count[j2] == 1) stack.push_back(j2);
    }
  }
  // The bump: whatever the peel could not order, sparsest first (ascending
  // count of entries in still-active rows; Suhl & Suhl 1990). A dense
  // linking column such as pMCF's concurrent-flow F then goes last, where it
  // costs one U column, instead of filling every later column with its L
  // column. The sort is stable, so ties keep basis-position order.
  const auto bump_begin = static_cast<std::ptrdiff_t>(order.size());
  for (int j = 0; j < n; ++j) {
    if (!used[j]) order.push_back(j);
  }
  std::stable_sort(order.begin() + bump_begin, order.end(), [&](int x, int y) {
    return active_count[static_cast<std::size_t>(x)] <
           active_count[static_cast<std::size_t>(y)];
  });
  return order;
}

}  // namespace

void SparseLu::factor(const CscMatrix& a, const std::vector<int>& columns,
                      bool prepare_updates) {
  n_ = static_cast<int>(columns.size());
  const int m = a.num_rows();
  A2A_REQUIRE(n_ == m, "basis matrix must be square");

  col_order_ = singleton_peel_order(a, columns);

  lptr_.assign(1, 0);
  lrow_.clear();
  lval_.clear();
  urow_.clear();
  uval_.clear();
  ubeg_.assign(static_cast<std::size_t>(n_), 0);
  uend_.assign(static_cast<std::size_t>(n_), 0);
  udiag_.assign(static_cast<std::size_t>(n_), 0.0);
  pivot_row_.assign(static_cast<std::size_t>(n_), -1);

  // pinv[r] = column id that claimed original row r, or -1.
  std::vector<int> pinv(static_cast<std::size_t>(m), -1);
  std::vector<double> work(static_cast<std::size_t>(m), 0.0);
  std::vector<int> pattern;
  pattern.reserve(64);
  // Column ids whose L column is nonempty, in order. The elimination sweep
  // below probes only these: for the (large) triangular prefix the peel
  // produces, L columns are empty and contribute nothing, so skipping them
  // keeps refactorization near O(fill) instead of O(n^2) probes.
  std::vector<int> nontrivial_l;
  nontrivial_l.reserve(64);
  // Static row counts over the basis — the Markowitz-style tie-break below
  // prefers pivots in sparse rows, which is what keeps fill low inside the
  // bump that the singleton peel could not triangularize.
  std::vector<int> row_count(static_cast<std::size_t>(m), 0);
  for (int j = 0; j < n_; ++j) {
    const int col = columns[static_cast<std::size_t>(j)];
    for (int k = a.col_begin(col); k < a.col_end(col); ++k) {
      ++row_count[static_cast<std::size_t>(a.entry_row(k))];
    }
  }

  for (int j = 0; j < n_; ++j) {
    // Scatter the j-th column (in factored order) into the dense workspace.
    pattern.clear();
    const int col = columns[static_cast<std::size_t>(col_order_[static_cast<std::size_t>(j)])];
    for (int k = a.col_begin(col); k < a.col_end(col); ++k) {
      const int r = a.entry_row(k);
      if (work[static_cast<std::size_t>(r)] == 0.0) pattern.push_back(r);
      work[static_cast<std::size_t>(r)] += a.entry_value(k);
    }
    // Eliminate with the already-formed nonempty L columns, in pivot order.
    // The value at a pivoted row is final once every earlier pivot has been
    // applied, so a single ordered sweep computes the partial solve
    // L y = a_j.
    for (const int k : nontrivial_l) {
      const double t = work[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])];
      if (t == 0.0) continue;
      for (int p = lptr_[static_cast<std::size_t>(k)]; p < lptr_[static_cast<std::size_t>(k) + 1];
           ++p) {
        const int r = lrow_[static_cast<std::size_t>(p)];
        if (work[static_cast<std::size_t>(r)] == 0.0) pattern.push_back(r);
        work[static_cast<std::size_t>(r)] -= lval_[static_cast<std::size_t>(p)] * t;
      }
    }
    // Threshold pivoting over the not-yet-pivoted rows: among rows within
    // a factor of the largest magnitude, prefer the sparsest row.
    double largest = 0.0;
    for (const int r : pattern) {
      if (pinv[static_cast<std::size_t>(r)] >= 0) continue;
      largest = std::max(largest, std::abs(work[static_cast<std::size_t>(r)]));
    }
    int pivot = -1;
    double best = 0.0;
    int best_count = 0;
    for (const int r : pattern) {
      if (pinv[static_cast<std::size_t>(r)] >= 0) continue;
      const double v = std::abs(work[static_cast<std::size_t>(r)]);
      if (v < 0.1 * largest || v < 1e-11) continue;
      const int rc = row_count[static_cast<std::size_t>(r)];
      if (pivot < 0 || rc < best_count || (rc == best_count && v > best)) {
        pivot = r;
        best = v;
        best_count = rc;
      }
    }
    if (pivot < 0 || largest < 1e-11) {
      // Clear the workspace before throwing so the object stays reusable.
      for (const int r : pattern) work[static_cast<std::size_t>(r)] = 0.0;
      throw SolverError(detail::concat(
          "singular basis matrix in sparse LU factorization (elimination "
          "column ", j, " of ", n_, ", best pivot magnitude ", largest, ")"));
    }
    pivot_row_[static_cast<std::size_t>(j)] = pivot;
    pinv[static_cast<std::size_t>(pivot)] = j;
    const double d = work[static_cast<std::size_t>(pivot)];
    udiag_[static_cast<std::size_t>(j)] = d;
    // Split the workspace into the U column (pivoted rows) and the L column
    // (still-active rows, scaled by the pivot).
    ubeg_[static_cast<std::size_t>(j)] = static_cast<int>(urow_.size());
    for (const int r : pattern) {
      const double v = work[static_cast<std::size_t>(r)];
      work[static_cast<std::size_t>(r)] = 0.0;
      if (v == 0.0 || r == pivot) continue;
      const int step = pinv[static_cast<std::size_t>(r)];
      if (step >= 0 && step < j) {
        urow_.push_back(step);
        uval_.push_back(v);
      } else if (step < 0) {
        lrow_.push_back(r);
        lval_.push_back(v / d);
      }
    }
    uend_[static_cast<std::size_t>(j)] = static_cast<int>(urow_.size());
    lptr_.push_back(static_cast<int>(lrow_.size()));
    if (lptr_[static_cast<std::size_t>(j) + 1] > lptr_[static_cast<std::size_t>(j)]) {
      nontrivial_l.push_back(j);
    }
  }

  // ---- Forrest–Tomlin bookkeeping ------------------------------------------
  uorder_.resize(static_cast<std::size_t>(n_));
  upos_.resize(static_cast<std::size_t>(n_));
  id_of_pos_.resize(static_cast<std::size_t>(n_));
  for (int j = 0; j < n_; ++j) {
    uorder_[static_cast<std::size_t>(j)] = j;
    upos_[static_cast<std::size_t>(j)] = j;
    id_of_pos_[static_cast<std::size_t>(col_order_[static_cast<std::size_t>(j)])] = j;
  }
  eta_target_.clear();
  eta_ptr_.assign(1, 0);
  eta_col_.clear();
  eta_mult_.clear();
  num_updates_ = 0;
  base_fill_ = urow_.size();
  live_u_entries_ = urow_.size();
  eta_entries_ = 0;
  updates_prepared_ = prepare_updates;
  if (prepare_updates) {
    if (static_cast<int>(urows_.size()) < n_) {
      urows_.resize(static_cast<std::size_t>(n_));
    }
    for (int r = 0; r < n_; ++r) urows_[static_cast<std::size_t>(r)].clear();
    for (int j = 0; j < n_; ++j) {
      for (int p = ubeg_[static_cast<std::size_t>(j)]; p < uend_[static_cast<std::size_t>(j)];
           ++p) {
        urows_[static_cast<std::size_t>(urow_[static_cast<std::size_t>(p)])].push_back(
            RowRef{j, p});
      }
    }
    row_accum_.assign(static_cast<std::size_t>(n_), 0.0);
    queued_.assign(static_cast<std::size_t>(n_), 0);
  }
}

void SparseLu::ftran(std::vector<double>& x, std::vector<double>& scratch,
                     std::vector<double>* spike) const {
  // B = P' L R^-1 U Q' in effect: solve L y = P b, apply the Forrest–Tomlin
  // row etas, solve U z = y over the logical column order, then scatter z
  // back through col_order_. `x` enters indexed by original row; the L sweep
  // works in place, skipping pivot steps whose value is structurally zero.
  for (int k = 0; k < n_; ++k) {
    const double t = x[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])];
    if (t == 0.0) continue;
    for (int p = lptr_[static_cast<std::size_t>(k)]; p < lptr_[static_cast<std::size_t>(k) + 1];
         ++p) {
      x[static_cast<std::size_t>(lrow_[static_cast<std::size_t>(p)])] -=
          lval_[static_cast<std::size_t>(p)] * t;
    }
  }
  // Gather y into column-id space.
  scratch.resize(static_cast<std::size_t>(n_));
  for (int k = 0; k < n_; ++k) {
    scratch[static_cast<std::size_t>(k)] =
        x[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])];
  }
  // Forrest–Tomlin row etas, in update order: y_t -= sum m_c y_c.
  const std::size_t num_etas = eta_target_.size();
  for (std::size_t e = 0; e < num_etas; ++e) {
    double acc = 0.0;
    for (int k = eta_ptr_[e]; k < eta_ptr_[e + 1]; ++k) {
      acc += eta_mult_[static_cast<std::size_t>(k)] *
             scratch[static_cast<std::size_t>(eta_col_[static_cast<std::size_t>(k)])];
    }
    scratch[static_cast<std::size_t>(eta_target_[e])] -= acc;
  }
  if (spike != nullptr) *spike = scratch;
  // Backward U solve over the logical order; entries of a column sit at
  // earlier logical positions, so the in-place sweep is a textbook
  // column-oriented back substitution.
  for (int pos = n_ - 1; pos >= 0; --pos) {
    const int id = uorder_[static_cast<std::size_t>(pos)];
    double& zk = scratch[static_cast<std::size_t>(id)];
    if (zk == 0.0) continue;
    zk /= udiag_[static_cast<std::size_t>(id)];
    for (int p = ubeg_[static_cast<std::size_t>(id)]; p < uend_[static_cast<std::size_t>(id)];
         ++p) {
      scratch[static_cast<std::size_t>(urow_[static_cast<std::size_t>(p)])] -=
          uval_[static_cast<std::size_t>(p)] * zk;
    }
  }
  // Un-permute columns: id k solved the variable at basis position
  // col_order_[k].
  for (int k = 0; k < n_; ++k) {
    x[static_cast<std::size_t>(col_order_[static_cast<std::size_t>(k)])] =
        scratch[static_cast<std::size_t>(k)];
  }
}

void SparseLu::btran(std::vector<double>& y, std::vector<double>& scratch) const {
  // Transpose-reverse of ftran: gather c through the column order, solve
  // U' a = c (forward over the logical order; column-oriented U gives the
  // needed row access), apply the row etas transposed in reverse update
  // order, then L' g = a (backward) and scatter by the row permutation.
  scratch.resize(static_cast<std::size_t>(n_));
  for (int k = 0; k < n_; ++k) {
    scratch[static_cast<std::size_t>(k)] =
        y[static_cast<std::size_t>(col_order_[static_cast<std::size_t>(k)])];
  }
  for (int pos = 0; pos < n_; ++pos) {
    const int id = uorder_[static_cast<std::size_t>(pos)];
    double t = scratch[static_cast<std::size_t>(id)];
    for (int p = ubeg_[static_cast<std::size_t>(id)]; p < uend_[static_cast<std::size_t>(id)];
         ++p) {
      t -= uval_[static_cast<std::size_t>(p)] *
           scratch[static_cast<std::size_t>(urow_[static_cast<std::size_t>(p)])];
    }
    scratch[static_cast<std::size_t>(id)] = t / udiag_[static_cast<std::size_t>(id)];
  }
  for (std::size_t e = eta_target_.size(); e-- > 0;) {
    const double at = scratch[static_cast<std::size_t>(eta_target_[e])];
    if (at == 0.0) continue;
    for (int k = eta_ptr_[e]; k < eta_ptr_[e + 1]; ++k) {
      scratch[static_cast<std::size_t>(eta_col_[static_cast<std::size_t>(k)])] -=
          eta_mult_[static_cast<std::size_t>(k)] * at;
    }
  }
  y.assign(y.size(), 0.0);
  for (int k = n_ - 1; k >= 0; --k) {
    double t = scratch[static_cast<std::size_t>(k)];
    for (int p = lptr_[static_cast<std::size_t>(k)]; p < lptr_[static_cast<std::size_t>(k) + 1];
         ++p) {
      // L rows are original row ids of later pivot steps; their solution
      // components are already final in the backward sweep.
      t -= lval_[static_cast<std::size_t>(p)] *
           y[static_cast<std::size_t>(lrow_[static_cast<std::size_t>(p)])];
    }
    y[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])] = t;
  }
}

bool SparseLu::update(int basis_pos, const std::vector<double>& spike,
                      double diag_tol, double drop_tol) {
  A2A_REQUIRE(updates_prepared_, "SparseLu::update without prepare_updates");
  A2A_REQUIRE(basis_pos >= 0 && basis_pos < n_, "update position out of range");
  const int t = id_of_pos_[static_cast<std::size_t>(basis_pos)];
  const int kt = upos_[static_cast<std::size_t>(t)];

  // Eliminate the row spike: after moving column t to the last logical
  // position, the live entries of row t (all at later positions) sit below
  // the diagonal. Subtracting m_c = u_{t,c}/u_{c,c} times row c, in logical
  // position order, zeroes them; fill created in row t lands at later
  // positions and is queued for elimination in turn. The multipliers become
  // the update's single row eta; the spike's own row-t component absorbs the
  // same combinations to become the new diagonal.
  double vt = spike[static_cast<std::size_t>(t)];
  std::vector<int>& mult_col = mult_col_;
  std::vector<double>& mult_val = mult_val_;
  mult_col.clear();
  mult_val.clear();
  // Min-heap of (logical position, column id) pending elimination.
  std::vector<std::pair<int, int>>& heap = heap_;
  heap.clear();
  const auto heap_cmp = [](const std::pair<int, int>& a, const std::pair<int, int>& b) {
    return a > b;  // min-heap by position, id as deterministic tie-break
  };
  for (const RowRef& ref : urows_[static_cast<std::size_t>(t)]) {
    const double v = uval_[static_cast<std::size_t>(ref.slot)];
    if (v == 0.0) continue;  // dead slot from an earlier update
    row_accum_[static_cast<std::size_t>(ref.col)] += v;
    if (!queued_[static_cast<std::size_t>(ref.col)]) {
      queued_[static_cast<std::size_t>(ref.col)] = 1;
      heap.emplace_back(upos_[static_cast<std::size_t>(ref.col)], ref.col);
      std::push_heap(heap.begin(), heap.end(), heap_cmp);
    }
  }
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_cmp);
    const int c = heap.back().second;
    heap.pop_back();
    queued_[static_cast<std::size_t>(c)] = 0;
    const double w = row_accum_[static_cast<std::size_t>(c)];
    row_accum_[static_cast<std::size_t>(c)] = 0.0;
    if (w == 0.0) continue;  // cancelled by fill
    const double m = w / udiag_[static_cast<std::size_t>(c)];
    if (std::abs(m) <= drop_tol) continue;  // O(drop_tol * |diag|) error
    mult_col.push_back(c);
    mult_val.push_back(m);
    vt -= m * spike[static_cast<std::size_t>(c)];
    for (const RowRef& ref : urows_[static_cast<std::size_t>(c)]) {
      if (ref.col == t) continue;  // the replaced column is gone
      const double v = uval_[static_cast<std::size_t>(ref.slot)];
      if (v == 0.0) continue;
      double& acc = row_accum_[static_cast<std::size_t>(ref.col)];
      acc -= m * v;
      if (!queued_[static_cast<std::size_t>(ref.col)] && acc != 0.0) {
        queued_[static_cast<std::size_t>(ref.col)] = 1;
        heap.emplace_back(upos_[static_cast<std::size_t>(ref.col)], ref.col);
        std::push_heap(heap.begin(), heap.end(), heap_cmp);
      }
    }
  }
  // Stability gate: a tiny transformed diagonal would poison every later
  // solve; hand the basis back for refactorization instead (nothing has
  // been committed — the factors still represent the old basis).
  double spike_max = 1.0;
  for (int i = 0; i < n_; ++i) {
    spike_max = std::max(spike_max, std::abs(spike[static_cast<std::size_t>(i)]));
  }
  if (!(std::abs(vt) >= diag_tol * spike_max)) return false;

  // ---- commit --------------------------------------------------------------
  // Dead entries are zeroed in place (the solves skip exact zeros) and
  // reclaimed by the next refactorization.
  for (int p = ubeg_[static_cast<std::size_t>(t)]; p < uend_[static_cast<std::size_t>(t)];
       ++p) {
    if (uval_[static_cast<std::size_t>(p)] != 0.0) {
      uval_[static_cast<std::size_t>(p)] = 0.0;
      --live_u_entries_;
    }
  }
  for (const RowRef& ref : urows_[static_cast<std::size_t>(t)]) {
    if (uval_[static_cast<std::size_t>(ref.slot)] != 0.0) {
      uval_[static_cast<std::size_t>(ref.slot)] = 0.0;
      --live_u_entries_;
    }
  }
  urows_[static_cast<std::size_t>(t)].clear();
  ubeg_[static_cast<std::size_t>(t)] = static_cast<int>(urow_.size());
  for (int r = 0; r < n_; ++r) {
    if (r == t) continue;
    const double v = spike[static_cast<std::size_t>(r)];
    if (std::abs(v) <= drop_tol) continue;
    const int slot = static_cast<int>(urow_.size());
    urow_.push_back(r);
    uval_.push_back(v);
    urows_[static_cast<std::size_t>(r)].push_back(RowRef{t, slot});
    ++live_u_entries_;
  }
  uend_[static_cast<std::size_t>(t)] = static_cast<int>(urow_.size());
  udiag_[static_cast<std::size_t>(t)] = vt;
  if (!mult_col.empty()) {
    eta_target_.push_back(t);
    for (std::size_t k = 0; k < mult_col.size(); ++k) {
      eta_col_.push_back(mult_col[k]);
      eta_mult_.push_back(mult_val[k]);
    }
    eta_ptr_.push_back(static_cast<int>(eta_col_.size()));
    eta_entries_ += mult_col.size();
  }
  uorder_.erase(uorder_.begin() + kt);
  uorder_.push_back(t);
  for (int pos = kt; pos < n_; ++pos) {
    upos_[static_cast<std::size_t>(uorder_[static_cast<std::size_t>(pos)])] = pos;
  }
  ++num_updates_;
  return true;
}

}  // namespace a2a
