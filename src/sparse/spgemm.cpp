#include "sparse/spgemm.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace dsouth::sparse {

CsrMatrix spgemm(const CsrMatrix& a, const CsrMatrix& b) {
  DSOUTH_CHECK_MSG(a.cols() == b.rows(), "spgemm dimension mismatch: "
                                             << a.rows() << "x" << a.cols()
                                             << " * " << b.rows() << "x"
                                             << b.cols());
  const index_t m = a.rows(), n = b.cols();
  std::vector<csr_index_t> row_ptr(static_cast<std::size_t>(m) + 1, 0);
  std::vector<csr_index_t> col_idx;
  std::vector<value_t> values;
  // Gustavson: per output row, accumulate into a dense workspace with a
  // touched-column list (cleared per row, so total work is O(flops)).
  std::vector<value_t> acc(static_cast<std::size_t>(n), 0.0);
  std::vector<char> touched(static_cast<std::size_t>(n), 0);
  std::vector<csr_index_t> cols_in_row;
  for (index_t i = 0; i < m; ++i) {
    cols_in_row.clear();
    auto a_cols = a.row_cols(i);
    auto a_vals = a.row_vals(i);
    for (std::size_t ka = 0; ka < a_cols.size(); ++ka) {
      const index_t k = a_cols[ka];
      const value_t av = a_vals[ka];
      auto b_cols = b.row_cols(k);
      auto b_vals = b.row_vals(k);
      for (std::size_t kb = 0; kb < b_cols.size(); ++kb) {
        const auto j = static_cast<std::size_t>(b_cols[kb]);
        if (!touched[j]) {
          touched[j] = 1;
          cols_in_row.push_back(b_cols[kb]);
        }
        acc[j] += av * b_vals[kb];
      }
    }
    std::sort(cols_in_row.begin(), cols_in_row.end());
    for (csr_index_t j : cols_in_row) {
      col_idx.push_back(j);
      values.push_back(acc[static_cast<std::size_t>(j)]);
      acc[static_cast<std::size_t>(j)] = 0.0;
      touched[static_cast<std::size_t>(j)] = 0;
    }
    // Fill-in can push the product past the 32-bit limit that bounds
    // both factors.
    DSOUTH_CHECK_MSG(std::in_range<csr_index_t>(col_idx.size()),
                     "spgemm: product exceeds the 32-bit CSR index limit");
    row_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<csr_index_t>(col_idx.size());
  }
  return CsrMatrix(m, n, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

CsrMatrix galerkin_product(const CsrMatrix& a, const CsrMatrix& p) {
  DSOUTH_CHECK(a.rows() == a.cols());
  DSOUTH_CHECK(p.rows() == a.rows());
  CsrMatrix pt = p.transpose();
  return spgemm(spgemm(pt, a), p);
}

}  // namespace dsouth::sparse
