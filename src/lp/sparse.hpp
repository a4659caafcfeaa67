// Compressed sparse column/row storage for the LP layer.
//
// The revised simplex keeps the full constraint matrix (structurals, slacks,
// artificials) in an append-only CSC container. Two mirrors are built once
// after construction and serve the pivot row rho' A: a CSR mirror for the
// row-wise price-out over the rows where rho is nonzero, and a row-order
// index of the CSC (row_order()) for the column-wise price-out over the
// nonbasic columns. Both sum each a_rj in ascending row order, so the two
// give the same bits. tsMCF-style network LPs are >99% sparse, so all
// per-iteration work is driven by these arrays instead of
// vector<vector<...>> columns.
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "common/error.hpp"

namespace a2a {

/// Append-only compressed-sparse-column matrix. Columns are finalized in
/// order: begin_column() opens column j, push() appends entries to it.
class CscMatrix {
 public:
  explicit CscMatrix(int num_rows = 0) : num_rows_(num_rows) { ptr_.push_back(0); }

  void reset(int num_rows, std::size_t nnz_hint = 0) {
    num_rows_ = num_rows;
    ptr_.assign(1, 0);
    row_.clear();
    val_.clear();
    if (nnz_hint > 0) {
      row_.reserve(nnz_hint);
      val_.reserve(nnz_hint);
    }
  }

  /// Opens a new column; returns its index.
  int begin_column() {
    ptr_.push_back(ptr_.back());
    return num_cols() - 1;
  }

  /// Appends an entry to the most recently opened column.
  void push(int row, double value) {
    A2A_ASSERT(row >= 0 && row < num_rows_, "CSC row out of range");
    row_.push_back(row);
    val_.push_back(value);
    ++ptr_.back();
  }

  [[nodiscard]] int num_rows() const { return num_rows_; }
  [[nodiscard]] int num_cols() const { return static_cast<int>(ptr_.size()) - 1; }
  [[nodiscard]] std::size_t num_nonzeros() const { return row_.size(); }

  [[nodiscard]] int col_begin(int j) const { return ptr_[static_cast<std::size_t>(j)]; }
  [[nodiscard]] int col_end(int j) const { return ptr_[static_cast<std::size_t>(j) + 1]; }
  [[nodiscard]] int entry_row(int k) const { return row_[static_cast<std::size_t>(k)]; }
  [[nodiscard]] double entry_value(int k) const { return val_[static_cast<std::size_t>(k)]; }

  /// Entry positions regrouped so that positions [col_begin(j),
  /// col_end(j)) list column j's entries in ascending row order (entries
  /// that share a row keep their insertion order) — the order in which the
  /// CSR mirror meets them. An index rather than a sorted copy: a third of
  /// the memory, and no slower to sum through.
  [[nodiscard]] std::vector<int> row_order() const {
    std::vector<int> order(row_.size());
    std::iota(order.begin(), order.end(), 0);
    for (int j = 0; j < num_cols(); ++j) {
      std::sort(order.begin() + col_begin(j), order.begin() + col_end(j),
                [this](int a, int b) {
                  const int ra = row_[static_cast<std::size_t>(a)];
                  const int rb = row_[static_cast<std::size_t>(b)];
                  return ra != rb ? ra < rb : a < b;
                });
    }
    return order;
  }

 private:
  int num_rows_ = 0;
  std::vector<int> ptr_;   ///< size num_cols + 1.
  std::vector<int> row_;
  std::vector<double> val_;
};

/// Row-major mirror of a CscMatrix (entries per row as (col, value) runs,
/// each run in ascending column order). Built once; forms pivot rows rho' A
/// from the rows where rho is nonzero without touching every column.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  void build_from(const CscMatrix& csc) {
    const int m = csc.num_rows();
    const int n = csc.num_cols();
    ptr_.assign(static_cast<std::size_t>(m) + 1, 0);
    col_.resize(csc.num_nonzeros());
    val_.resize(csc.num_nonzeros());
    // Counting pass.
    for (int j = 0; j < n; ++j) {
      for (int k = csc.col_begin(j); k < csc.col_end(j); ++k) {
        ++ptr_[static_cast<std::size_t>(csc.entry_row(k)) + 1];
      }
    }
    for (int r = 0; r < m; ++r) {
      ptr_[static_cast<std::size_t>(r) + 1] += ptr_[static_cast<std::size_t>(r)];
    }
    std::vector<int> next(ptr_.begin(), ptr_.end() - 1);
    for (int j = 0; j < n; ++j) {
      for (int k = csc.col_begin(j); k < csc.col_end(j); ++k) {
        const int slot = next[static_cast<std::size_t>(csc.entry_row(k))]++;
        col_[static_cast<std::size_t>(slot)] = j;
        val_[static_cast<std::size_t>(slot)] = csc.entry_value(k);
      }
    }
    num_rows_ = m;
  }

  [[nodiscard]] int num_rows() const { return num_rows_; }
  [[nodiscard]] int row_begin(int r) const { return ptr_[static_cast<std::size_t>(r)]; }
  [[nodiscard]] int row_end(int r) const { return ptr_[static_cast<std::size_t>(r) + 1]; }
  [[nodiscard]] int entry_col(int k) const { return col_[static_cast<std::size_t>(k)]; }
  [[nodiscard]] double entry_value(int k) const { return val_[static_cast<std::size_t>(k)]; }

 private:
  int num_rows_ = 0;
  std::vector<int> ptr_;
  std::vector<int> col_;
  std::vector<double> val_;
};

}  // namespace a2a
