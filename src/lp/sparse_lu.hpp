// Sparse LU factorization of the simplex basis matrix, with Forrest–Tomlin
// column-replacement updates.
//
// Left-looking column factorization with partial pivoting; L and U are kept
// as sparse columns, so ftran/btran are sparse triangular solves that skip
// structural zeros instead of dense O(m^2) passes, and refactorization costs
// O(fill) instead of the O(m^3) dense invert it replaces. A column-singleton
// peel orders the triangular part of the basis with zero fill. What it
// leaves, the bump, is not small for every flow LP: the pMCF basis carries
// the concurrent-flow column F, with an entry in every commodity's demand
// row. The bump is therefore factored sparsest column first (ascending count
// of entries in still-active rows, stable on basis position; the column
// order of Suhl & Suhl 1990), so F is eliminated last and costs one U
// column instead of filling every column after it through its L column.
//
// Between refactorizations the factors track the live basis with
// Forrest–Tomlin updates (Forrest & Tomlin 1972): replacing the basis column
// at position p swaps the corresponding U column for the partially solved
// entering column (the "spike"), cyclically permutes it to the last logical
// position, and eliminates the leftover row spike with ONE row eta whose
// entries are the multipliers u_{t,c}/u_{c,c} of the pivot row. FTRAN/BTRAN
// therefore grow by a (typically tiny) row eta plus the spike column per
// pivot — bounded by the sparsity of U — instead of by a full transformed
// column as in the product-form eta file this replaces. U is stored with an
// explicit logical column order, so no renumbering ever happens; dead
// entries are zeroed in place and garbage-collected by the next
// refactorization.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "lp/sparse.hpp"

namespace a2a {

class SparseLu {
 public:
  SparseLu() = default;

  /// Factorizes the m x m matrix whose columns are `columns[0..m-1]`, each a
  /// column index into `a` (the full CSC constraint matrix). Throws
  /// SolverError on numerical singularity. `prepare_updates` additionally
  /// builds the row-wise U mirror that Forrest–Tomlin updates need; leave it
  /// off when the factors are used purely for solves.
  void factor(const CscMatrix& a, const std::vector<int>& columns,
              bool prepare_updates = false);

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] std::size_t fill_nonzeros() const {
    return lrow_.size() + urow_.size();
  }

  /// Solves B x = b. `x` is b on input (indexed by row), the solution on
  /// output (indexed by basis position). When `spike` is non-null it receives
  /// the partially solved vector (after L and the accumulated row etas,
  /// before the U solve) — exactly the Forrest–Tomlin spike update() needs
  /// for this column.
  void ftran(std::vector<double>& x, std::vector<double>& scratch,
             std::vector<double>* spike = nullptr) const;

  /// Solves B' y = c. `y` is c on input (indexed by basis position), the
  /// solution on output (indexed by row).
  void btran(std::vector<double>& y, std::vector<double>& scratch) const;

  /// Forrest–Tomlin update: the basis column at position `basis_pos` is
  /// replaced by the column whose partial FTRAN (from ftran()'s `spike`
  /// output) is `spike`. Returns false — leaving the factors representing
  /// the OLD basis — when the transformed spike diagonal is too small to
  /// pivot on stably (|d| < diag_tol * max(1, max|spike|)); the caller must
  /// refactorize. Entries below `drop_tol` are dropped from the stored
  /// column. Requires factor(..., prepare_updates=true).
  [[nodiscard]] bool update(int basis_pos, const std::vector<double>& spike,
                            double diag_tol, double drop_tol);

  /// Updates applied since the last factor().
  [[nodiscard]] int updates() const { return num_updates_; }
  /// Current FTRAN/BTRAN work estimate: live U entries plus accumulated row
  /// eta entries. Compare against base_fill() to trigger refactorization on
  /// fill growth instead of a fixed update count.
  [[nodiscard]] std::size_t update_work() const {
    return live_u_entries_ + eta_entries_;
  }
  [[nodiscard]] std::size_t base_fill() const { return base_fill_; }

 private:
  int n_ = 0;
  bool updates_prepared_ = false;
  // L: unit lower triangular, columns in pivot order; row indices are
  // ORIGINAL matrix rows (rows not yet pivoted when the column was formed).
  std::vector<int> lptr_, lrow_;
  std::vector<double> lval_;
  // U: columns keyed by a stable id (the pivot step that created them, with
  // Forrest–Tomlin spikes reusing the id of the column they replace); row
  // indices inside a column are ids too. Triangularity is with respect to
  // uorder_, the logical column order, never the id. ubeg_/uend_ delimit a
  // column's live segment in the flat arrays; replaced segments are zeroed
  // and left behind until the next refactorization.
  std::vector<int> urow_;
  std::vector<double> uval_;
  std::vector<int> ubeg_, uend_;
  std::vector<double> udiag_;
  std::vector<int> uorder_;  ///< logical position -> column id.
  std::vector<int> upos_;    ///< column id -> logical position.
  std::vector<int> pivot_row_;  ///< column id -> original row (the FTRAN gather).
  /// Column id -> basis position (the FTRAN scatter). Columns are factored
  /// in a fill-reducing order (column-singleton peel first), not position
  /// order.
  std::vector<int> col_order_;
  std::vector<int> id_of_pos_;  ///< basis position -> column id.
  // Row-wise U mirror for updates: per row id, the (column id, slot) pairs
  // of its entries. Slots whose value was zeroed are dead and skipped.
  struct RowRef {
    int col;
    int slot;
  };
  std::vector<std::vector<RowRef>> urows_;
  // Forrest–Tomlin row-eta file (flat arrays): eta e subtracts
  // sum_k mult[k] * y[col[k]] from y[target[e]] during FTRAN (and the
  // transposed scatter during BTRAN).
  std::vector<int> eta_target_;
  std::vector<int> eta_ptr_{0};
  std::vector<int> eta_col_;
  std::vector<double> eta_mult_;
  int num_updates_ = 0;
  std::size_t base_fill_ = 0;
  std::size_t live_u_entries_ = 0;
  std::size_t eta_entries_ = 0;
  // update() scratch, kept to avoid per-pivot allocation.
  std::vector<double> row_accum_;
  std::vector<char> queued_;
  std::vector<int> mult_col_;
  std::vector<double> mult_val_;
  std::vector<std::pair<int, int>> heap_;
};

}  // namespace a2a
