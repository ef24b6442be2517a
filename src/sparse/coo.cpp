#include "sparse/coo.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "sparse/csr.hpp"
#include "util/error.hpp"

namespace dsouth::sparse {

CooBuilder::CooBuilder(index_t rows, index_t cols) : rows_(rows), cols_(cols) {
  DSOUTH_CHECK(rows >= 0 && cols >= 0);
  DSOUTH_CHECK_MSG(rows <= kMaxCsrIndex && cols <= kMaxCsrIndex,
                   rows << "x" << cols
                        << " exceeds the 32-bit CSR index limit");
}

void CooBuilder::add(index_t i, index_t j, value_t v) {
  DSOUTH_CHECK_MSG(i >= 0 && i < rows_ && j >= 0 && j < cols_,
                   "entry (" << i << "," << j << ") out of " << rows_ << "x"
                             << cols_);
  is_.push_back(static_cast<csr_index_t>(i));
  js_.push_back(static_cast<csr_index_t>(j));
  vs_.push_back(v);
}

void CooBuilder::add_sym(index_t i, index_t j, value_t v) {
  add(i, j, v);
  if (i != j) add(j, i, v);
}

CsrMatrix CooBuilder::to_csr() const {
  const std::size_t m = is_.size();
  // Duplicates merge below, so the entry count bounds nnz and every
  // offset row_ptr takes on the way.
  DSOUTH_CHECK_MSG(std::in_range<csr_index_t>(m),
                   m << " entries exceed the 32-bit CSR index limit");
  const auto rows = static_cast<std::size_t>(rows_);
  // Stable counting sort by row: row i's entries land in
  // order[start_i, start_{i+1}) in insertion order. row_ptr holds the
  // starts until the merge below overwrites row_ptr[i + 1] with row i's
  // output end.
  std::vector<csr_index_t> row_ptr(rows + 1, 0);
  for (csr_index_t i : is_) ++row_ptr[static_cast<std::size_t>(i) + 1];
  std::partial_sum(row_ptr.begin(), row_ptr.end(), row_ptr.begin());
  std::vector<std::size_t> order(m);
  for (std::size_t k = 0; k < m; ++k) {
    csr_index_t& next = row_ptr[static_cast<std::size_t>(is_[k])];
    order[static_cast<std::size_t>(next++)] = k;
  }
  // The scatter advanced each start to the next row's; shift them back.
  for (std::size_t i = rows; i > 0; --i) row_ptr[i] = row_ptr[i - 1];
  row_ptr[0] = 0;

  std::vector<csr_index_t> col_idx;
  std::vector<value_t> values;
  col_idx.reserve(m);
  values.reserve(m);
  const auto col_less = [this](std::size_t a, std::size_t b) {
    return js_[a] < js_[b];
  };
  // (column, insertion index) is a total order, so an unstable sort by it
  // puts equal columns in insertion order, as a stable sort would.
  const auto key_less = [this](std::size_t a, std::size_t b) {
    return js_[a] != js_[b] ? js_[a] < js_[b] : a < b;
  };
  std::size_t begin = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    const auto end = static_cast<std::size_t>(row_ptr[i + 1]);
    const auto first = order.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = order.begin() + static_cast<std::ptrdiff_t>(end);
    // Rows that arrive column-ascending (every row of a column-major
    // symmetric Matrix Market file read through add_sym) merge as they are.
    if (!std::is_sorted(first, last, col_less)) {
      std::sort(first, last, key_less);
    }
    for (std::size_t k = begin; k < end;) {
      const csr_index_t j = js_[order[k]];
      value_t sum = 0.0;
      for (; k < end && js_[order[k]] == j; ++k) sum += vs_[order[k]];
      col_idx.push_back(j);
      values.push_back(sum);
    }
    row_ptr[i + 1] = static_cast<csr_index_t>(col_idx.size());
    begin = end;
  }
  return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

}  // namespace dsouth::sparse
