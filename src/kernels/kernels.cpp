#include "kernels/kernels.hpp"

#include "util/error.hpp"

namespace dsouth::kernels {

namespace {

/// a_ii from the matrix's recorded diagonal position (0 where absent, as
/// CsrMatrix::at would return).
value_t diagonal_at(std::span<const value_t> vals,
                    std::span<const sparse::csr_index_t> diag, index_t i) {
  const index_t pos = diag[static_cast<std::size_t>(i)];
  return pos >= 0 ? vals[static_cast<std::size_t>(pos)] : 0.0;
}

}  // namespace

double gs_sweep(const CsrMatrix& a_local, std::span<value_t> x,
                std::span<value_t> r) {
  const index_t m = a_local.rows();
  DSOUTH_CHECK(x.size() == static_cast<std::size_t>(m));
  DSOUTH_CHECK(r.size() == static_cast<std::size_t>(m));
  auto row_ptr = a_local.row_ptr();
  auto col_idx = a_local.col_idx();
  auto vals = a_local.values();
  auto diag = a_local.diag_pos();
  DSOUTH_CHECK(diag.size() == static_cast<std::size_t>(m));
  for (index_t i = 0; i < m; ++i) {
    const value_t aii = diagonal_at(vals, diag, i);
    DSOUTH_ASSERT(aii != 0.0);
    const value_t delta = r[static_cast<std::size_t>(i)] / aii;
    if (delta == 0.0) continue;
    x[static_cast<std::size_t>(i)] += delta;
    for (index_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      r[static_cast<std::size_t>(col_idx[k])] -= vals[k] * delta;
    }
    // Exact single-equation solve: pin the diagonal update.
    r[static_cast<std::size_t>(i)] = 0.0;
  }
  return 2.0 * static_cast<double>(a_local.nnz()) +
         2.0 * static_cast<double>(m);
}

value_t norm_sq(std::span<const value_t> r) {
  value_t s = 0.0;
  for (value_t v : r) s += v * v;
  return s;
}

}  // namespace dsouth::kernels
