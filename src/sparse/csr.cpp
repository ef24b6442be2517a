#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace dsouth::sparse {

CsrMatrix::CsrMatrix(index_t rows, index_t cols,
                     std::vector<csr_index_t> row_ptr,
                     std::vector<csr_index_t> col_idx,
                     std::vector<value_t> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  DSOUTH_CHECK(rows_ >= 0 && cols_ >= 0);
  DSOUTH_CHECK_MSG(rows_ <= kMaxCsrIndex && cols_ <= kMaxCsrIndex,
                   rows_ << "x" << cols_
                         << " exceeds the 32-bit CSR index limit");
  DSOUTH_CHECK(row_ptr_.size() == static_cast<std::size_t>(rows_) + 1);
  DSOUTH_CHECK(col_idx_.size() == values_.size());
  // row_ptr is 32-bit, so this also bounds nnz by kMaxCsrIndex.
  DSOUTH_CHECK(static_cast<std::size_t>(row_ptr_.back()) == col_idx_.size());
  if (rows_ != cols_) return;
  diag_pos_.assign(static_cast<std::size_t>(rows_), -1);
  const auto nz = static_cast<csr_index_t>(col_idx_.size());
  for (index_t i = 0; i < rows_; ++i) {
    // Clamped: a corrupt row_ptr can get here ahead of validate().
    const csr_index_t b = std::max<csr_index_t>(row_ptr_[i], 0);
    const csr_index_t e = std::min<csr_index_t>(row_ptr_[i + 1], nz);
    for (csr_index_t k = b; k < e; ++k) {
      if (col_idx_[k] == i) {
        diag_pos_[static_cast<std::size_t>(i)] = k;
        break;
      }
    }
  }
}

std::span<const csr_index_t> CsrMatrix::row_cols(index_t i) const {
  DSOUTH_ASSERT(i >= 0 && i < rows_);
  auto b = static_cast<std::size_t>(row_ptr_[i]);
  auto e = static_cast<std::size_t>(row_ptr_[i + 1]);
  return {col_idx_.data() + b, e - b};
}

std::span<const value_t> CsrMatrix::row_vals(index_t i) const {
  DSOUTH_ASSERT(i >= 0 && i < rows_);
  auto b = static_cast<std::size_t>(row_ptr_[i]);
  auto e = static_cast<std::size_t>(row_ptr_[i + 1]);
  return {values_.data() + b, e - b};
}

index_t CsrMatrix::row_nnz(index_t i) const {
  DSOUTH_ASSERT(i >= 0 && i < rows_);
  return row_ptr_[i + 1] - row_ptr_[i];
}

value_t CsrMatrix::at(index_t i, index_t j) const {
  auto cols = row_cols(i);
  auto it = std::lower_bound(cols.begin(), cols.end(), j);
  if (it == cols.end() || *it != j) return 0.0;
  return values_[static_cast<std::size_t>(row_ptr_[i]) +
                 static_cast<std::size_t>(it - cols.begin())];
}

std::vector<value_t> CsrMatrix::diagonal() const {
  std::vector<value_t> d(static_cast<std::size_t>(rows_), 0.0);
  for (index_t i = 0; i < rows_; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    if (diag_pos_.empty()) {
      d[ui] = at(i, i);  // rectangular: no recorded positions
    } else if (diag_pos_[ui] >= 0) {
      d[ui] = values_[static_cast<std::size_t>(diag_pos_[ui])];
    }
  }
  return d;
}

void CsrMatrix::spmv(std::span<const value_t> x, std::span<value_t> y) const {
  DSOUTH_CHECK(x.size() == static_cast<std::size_t>(cols_));
  DSOUTH_CHECK(y.size() == static_cast<std::size_t>(rows_));
  for (index_t i = 0; i < rows_; ++i) {
    value_t sum = 0.0;
    const index_t b = row_ptr_[i], e = row_ptr_[i + 1];
    for (index_t k = b; k < e; ++k) sum += values_[k] * x[col_idx_[k]];
    y[i] = sum;
  }
}

void CsrMatrix::spmv_acc(value_t alpha, std::span<const value_t> x,
                         std::span<value_t> y) const {
  DSOUTH_CHECK(x.size() == static_cast<std::size_t>(cols_));
  DSOUTH_CHECK(y.size() == static_cast<std::size_t>(rows_));
  for (index_t i = 0; i < rows_; ++i) {
    value_t sum = 0.0;
    const index_t b = row_ptr_[i], e = row_ptr_[i + 1];
    for (index_t k = b; k < e; ++k) sum += values_[k] * x[col_idx_[k]];
    y[i] += alpha * sum;
  }
}

void CsrMatrix::residual(std::span<const value_t> b, std::span<const value_t> x,
                         std::span<value_t> r) const {
  DSOUTH_CHECK(b.size() == static_cast<std::size_t>(rows_));
  std::copy(b.begin(), b.end(), r.begin());
  spmv_acc(-1.0, x, r);
}

CsrMatrix CsrMatrix::transpose() const {
  // The transpose has this matrix's nonzeros, so every offset fits.
  std::vector<csr_index_t> t_ptr(static_cast<std::size_t>(cols_) + 1, 0);
  for (csr_index_t j : col_idx_) ++t_ptr[static_cast<std::size_t>(j) + 1];
  for (index_t j = 0; j < cols_; ++j) {
    t_ptr[static_cast<std::size_t>(j) + 1] += t_ptr[static_cast<std::size_t>(j)];
  }
  std::vector<csr_index_t> t_col(col_idx_.size());
  std::vector<value_t> t_val(values_.size());
  std::vector<csr_index_t> cursor(t_ptr.begin(), t_ptr.end() - 1);
  for (csr_index_t i = 0; i < rows_; ++i) {
    for (csr_index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const csr_index_t slot = cursor[static_cast<std::size_t>(col_idx_[k])]++;
      t_col[static_cast<std::size_t>(slot)] = i;  // rows ascend -> sorted
      t_val[static_cast<std::size_t>(slot)] = values_[k];
    }
  }
  return CsrMatrix(cols_, rows_, std::move(t_ptr), std::move(t_col),
                   std::move(t_val));
}

bool CsrMatrix::is_symmetric(value_t tol) const {
  if (rows_ != cols_) return false;
  for (index_t i = 0; i < rows_; ++i) {
    auto cols = row_cols(i);
    auto vals = row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (std::abs(vals[k] - at(cols[k], i)) > tol) return false;
    }
  }
  return true;
}

bool CsrMatrix::has_full_diagonal() const {
  if (rows_ != cols_) return false;
  for (index_t i = 0; i < rows_; ++i) {
    if (at(i, i) == 0.0) return false;
  }
  return true;
}

CsrMatrix CsrMatrix::extract(std::span<const index_t> rows_sel,
                             std::span<const index_t> col_map,
                             index_t new_cols) const {
  DSOUTH_CHECK(col_map.size() == static_cast<std::size_t>(cols_));
  DSOUTH_CHECK_MSG(new_cols >= 0 && new_cols <= kMaxCsrIndex,
                   "extract: " << new_cols
                               << " columns exceed the 32-bit CSR limit");
  // Count, then fill: each output array is allocated once, at its size.
  std::vector<csr_index_t> new_ptr(rows_sel.size() + 1, 0);
  std::size_t count = 0;
  for (std::size_t out_i = 0; out_i < rows_sel.size(); ++out_i) {
    const index_t i = rows_sel[out_i];
    DSOUTH_CHECK(i >= 0 && i < rows_);
    for (csr_index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const index_t nj = col_map[static_cast<std::size_t>(col_idx_[k])];
      if (nj < 0) continue;
      DSOUTH_CHECK_MSG(nj < new_cols, "extract: a column maps to "
                                          << nj << ", past " << new_cols
                                          << " columns");
      ++count;
    }
    // A row selected twice repeats its entries, so the count can grow
    // past nnz().
    DSOUTH_CHECK_MSG(std::in_range<csr_index_t>(count),
                     "extract: entry count exceeds the 32-bit CSR limit");
    new_ptr[out_i + 1] = static_cast<csr_index_t>(count);
  }
  std::vector<csr_index_t> new_col(count);
  std::vector<value_t> new_val(count);
  for (std::size_t out_i = 0; out_i < rows_sel.size(); ++out_i) {
    const index_t i = rows_sel[out_i];
    const auto b = static_cast<std::size_t>(new_ptr[out_i]);
    std::size_t e = b;
    for (csr_index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const index_t nj = col_map[static_cast<std::size_t>(col_idx_[k])];
      if (nj < 0) continue;
      // Insertion into the row kept sorted so far: a col_map monotone on
      // the row's stored columns (every layout block's) never shifts, a
      // reordering one (graph::permute_symmetric's) does.
      std::size_t q = e++;
      while (q > b && new_col[q - 1] > nj) {
        new_col[q] = new_col[q - 1];
        new_val[q] = new_val[q - 1];
        --q;
      }
      new_col[q] = static_cast<csr_index_t>(nj);
      new_val[q] = values_[k];
    }
  }
  return CsrMatrix(static_cast<index_t>(rows_sel.size()), new_cols,
                   std::move(new_ptr), std::move(new_col), std::move(new_val));
}

bool CsrMatrix::validate() const {
  if (row_ptr_.size() != static_cast<std::size_t>(rows_) + 1) return false;
  if (row_ptr_[0] != 0) return false;
  const index_t nz = nnz();
  for (index_t i = 0; i < rows_; ++i) {
    // Bound the row before walking it: a row_ptr past nnz() would read
    // beyond col_idx_.
    if (row_ptr_[i + 1] < row_ptr_[i] || row_ptr_[i + 1] > nz) return false;
    for (csr_index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      if (col_idx_[k] < 0 || col_idx_[k] >= cols_) return false;
      if (k > row_ptr_[i] && col_idx_[k] <= col_idx_[k - 1]) return false;
    }
  }
  return row_ptr_.back() == nz;
}

}  // namespace dsouth::sparse
