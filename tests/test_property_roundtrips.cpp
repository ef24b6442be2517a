/// Round-trip and algebraic-identity property sweeps over randomly
/// generated matrices (seeded TEST_P suites).

#include <gtest/gtest.h>

#include <sstream>

#include "sparse/binary_io.hpp"
#include "sparse/coo.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/scaling.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/stencils.hpp"
#include "util/rng.hpp"

namespace dsouth::sparse {
namespace {

CsrMatrix random_matrix(index_t rows, index_t cols, index_t entries,
                        std::uint64_t seed) {
  util::Rng rng(seed);
  CooBuilder coo(rows, cols);
  for (index_t e = 0; e < entries; ++e) {
    coo.add(static_cast<index_t>(
                rng.next_below(static_cast<std::uint64_t>(rows))),
            static_cast<index_t>(
                rng.next_below(static_cast<std::uint64_t>(cols))),
            rng.uniform(-2.0, 2.0));
  }
  return coo.to_csr();
}

void expect_equal(const CsrMatrix& a, const CsrMatrix& b, double tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (index_t i = 0; i < a.rows(); ++i) {
    auto ca = a.row_cols(i);
    auto cb = b.row_cols(i);
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t k = 0; k < ca.size(); ++k) {
      EXPECT_EQ(ca[k], cb[k]);
      EXPECT_NEAR(a.row_vals(i)[k], b.row_vals(i)[k], tol);
    }
  }
}

class RoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundTrip, MatrixMarketThenBinaryPreservesEverything) {
  auto a = random_matrix(23, 17, 140, GetParam());
  // Matrix Market text (full precision).
  std::stringstream mm;
  write_matrix_market(mm, a, /*symmetric=*/false);
  auto via_mm = read_matrix_market(mm);
  expect_equal(a, via_mm, 0.0);  // 17 significant digits round-trip doubles
  // Binary.
  std::stringstream bin;
  write_binary_csr(bin, via_mm);
  auto via_bin = read_binary_csr(bin);
  expect_equal(a, via_bin, 0.0);
}

TEST_P(RoundTrip, TransposeIsAnInvolution) {
  auto a = random_matrix(19, 31, 200, GetParam() + 1000);
  expect_equal(a, a.transpose().transpose(), 0.0);
}

TEST_P(RoundTrip, SpgemmIsAssociative) {
  auto a = random_matrix(8, 9, 30, GetParam() + 2000);
  auto b = random_matrix(9, 7, 28, GetParam() + 3000);
  auto c = random_matrix(7, 10, 26, GetParam() + 4000);
  auto left = spgemm(spgemm(a, b), c);
  auto right = spgemm(a, spgemm(b, c));
  // Structural nnz can differ through explicit zeros; compare values.
  for (index_t i = 0; i < left.rows(); ++i) {
    for (index_t j = 0; j < left.cols(); ++j) {
      EXPECT_NEAR(left.at(i, j), right.at(i, j), 1e-11);
    }
  }
}

TEST_P(RoundTrip, IdentityProlongatorGalerkinIsIdentityMap) {
  auto n = index_t{12};
  auto a = symmetric_unit_diagonal_scale(poisson2d_5pt(4, 3)).a;
  // Identity P.
  std::vector<csr_index_t> rp(static_cast<std::size_t>(n) + 1);
  std::vector<csr_index_t> ci(static_cast<std::size_t>(n));
  std::vector<value_t> v(static_cast<std::size_t>(n), 1.0);
  for (csr_index_t i = 0; i <= n; ++i) rp[static_cast<std::size_t>(i)] = i;
  for (csr_index_t i = 0; i < n; ++i) ci[static_cast<std::size_t>(i)] = i;
  CsrMatrix p(n, n, std::move(rp), std::move(ci), std::move(v));
  auto ac = galerkin_product(a, p);
  expect_equal(a, ac, 1e-14);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTrip,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

}  // namespace
}  // namespace dsouth::sparse
