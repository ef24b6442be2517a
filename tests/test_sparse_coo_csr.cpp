#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "prof/prof.hpp"
#include "reference_csr.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/stencils.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsouth::sparse {
namespace {

CsrMatrix small_example() {
  // [ 2 -1  0 ]
  // [-1  2 -1 ]
  // [ 0 -1  2 ]
  CooBuilder coo(3, 3);
  coo.add(0, 0, 2.0);
  coo.add_sym(0, 1, -1.0);
  coo.add(1, 1, 2.0);
  coo.add_sym(1, 2, -1.0);
  coo.add(2, 2, 2.0);
  return coo.to_csr();
}

TEST(CooBuilder, BoundsChecked) {
  CooBuilder coo(2, 2);
  EXPECT_THROW(coo.add(2, 0, 1.0), util::CheckError);
  EXPECT_THROW(coo.add(0, -1, 1.0), util::CheckError);
}

TEST(CooBuilder, DuplicatesAreSummed) {
  CooBuilder coo(2, 2);
  coo.add(0, 1, 1.5);
  coo.add(0, 1, 2.5);
  coo.add(1, 1, 1.0);
  auto a = coo.to_csr();
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 4.0);
}

// to_csr drops no zeros: a duplicate run that cancels keeps its entry,
// stored as an explicit 0.0 in its column slot.
TEST(CooBuilder, DropZerosOnCancellation) {
  CooBuilder coo(1, 2);
  coo.add(0, 0, 1.0);
  coo.add(0, 0, -1.0);
  coo.add(0, 1, 3.0);
  auto a = coo.to_csr();
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_EQ(a.row_cols(0)[0], 0);
  EXPECT_EQ(a.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 3.0);
}

// Values whose sums depend on their order (1e16 swallows a unit
// neighbour), exact cancellations and both signed zeros.
value_t draw_value(util::Rng& rng) {
  switch (rng.next_below(6)) {
    case 0: return -0.0;
    case 1: return 0.0;
    case 2: return 1e16;
    case 3: return -1e16;
    default: return rng.uniform(-1.0, 1.0);
  }
}

// Seeded triplets over the even rows only (odd rows stay empty). A
// cancelling twin follows some entries; `sorted` reorders the whole list
// by (row, col), stably, as already-sorted input.
testref::Triplets random_triplets(std::uint64_t seed, index_t rows,
                                  index_t cols, std::size_t entries,
                                  bool sorted) {
  util::Rng rng(seed);
  testref::Triplets t{rows, cols, {}, {}, {}};
  while (t.is.size() < entries) {
    const auto i = static_cast<index_t>(
        2 * rng.next_below(static_cast<std::uint64_t>((rows + 1) / 2)));
    const auto j =
        static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(cols)));
    const value_t v = draw_value(rng);
    t.add(i, j, v);
    if (rng.next_below(4) == 0) t.add(i, j, -v);
  }
  if (sorted) {
    std::vector<std::size_t> perm(t.is.size());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    std::stable_sort(perm.begin(), perm.end(),
                     [&t](std::size_t a, std::size_t b) {
                       if (t.is[a] != t.is[b]) return t.is[a] < t.is[b];
                       return t.js[a] < t.js[b];
                     });
    testref::Triplets s{rows, cols, {}, {}, {}};
    for (std::size_t k : perm) s.add(t.is[k], t.js[k], t.vs[k]);
    t = std::move(s);
  }
  return t;
}

TEST(CooBuilder, ToCsrMatchesStableSortReferenceBitForBit) {
  struct Shape {
    index_t rows, cols;
    std::size_t entries;
  };
  // Square and rectangular; dense enough for long duplicate runs, sparse
  // enough for singletons; and with no entries at all.
  const Shape shapes[] = {{0, 0, 0},    {5, 3, 0},   {1, 1, 64},
                          {7, 7, 40},   {13, 5, 400}, {4, 29, 60},
                          {64, 64, 700}, {3, 200, 900}};
  std::uint64_t seed = 0xc005eed;
  for (const Shape& s : shapes) {
    for (bool sorted : {false, true}) {
      const auto t = random_triplets(seed++, s.rows, s.cols, s.entries, sorted);
      EXPECT_TRUE(testref::bit_identical(t.to_builder().to_csr(),
                                         testref::reference_to_csr(t)))
          << s.rows << "x" << s.cols << ", " << s.entries << " entries"
          << (sorted ? ", sorted" : "");
    }
  }
}

TEST(CsrMatrix, StructureAndAccessors) {
  auto a = small_example();
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_EQ(a.nnz(), 7);
  EXPECT_TRUE(a.validate());
  EXPECT_EQ(a.row_nnz(1), 3);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 0.0);
  auto d = a.diagonal();
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[2], 2.0);
  EXPECT_TRUE(a.has_full_diagonal());
}

TEST(CsrMatrix, RowSpansAreSorted) {
  auto a = small_example();
  auto cols = a.row_cols(1);
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols[0], 0);
  EXPECT_EQ(cols[1], 1);
  EXPECT_EQ(cols[2], 2);
}

TEST(CsrMatrix, SpmvMatchesDense) {
  auto a = poisson2d_5pt(4, 5);
  auto d = DenseMatrix::from_csr(a);
  std::vector<value_t> x(static_cast<std::size_t>(a.cols()));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.1 * static_cast<double>(i) - 0.7;
  }
  std::vector<value_t> ys(x.size()), yd(x.size());
  a.spmv(x, ys);
  d.matvec(x, yd);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(ys[i], yd[i], 1e-13);
}

TEST(CsrMatrix, SpmvAccAccumulates) {
  auto a = small_example();
  std::vector<value_t> x{1.0, 2.0, 3.0}, y{10.0, 10.0, 10.0};
  a.spmv_acc(-1.0, x, y);
  // A x = (0, 0, 4); y = 10 - Ax
  EXPECT_DOUBLE_EQ(y[0], 10.0);
  EXPECT_DOUBLE_EQ(y[1], 10.0);
  EXPECT_DOUBLE_EQ(y[2], 6.0);
}

TEST(CsrMatrix, ResidualDefinition) {
  auto a = small_example();
  std::vector<value_t> x{1.0, 1.0, 1.0}, b{1.0, 0.0, 1.0}, r(3);
  a.residual(b, x, r);
  EXPECT_DOUBLE_EQ(r[0], 0.0);
  EXPECT_DOUBLE_EQ(r[1], 0.0);
  EXPECT_DOUBLE_EQ(r[2], 0.0);
}

TEST(CsrMatrix, TransposeRoundTrip) {
  CooBuilder coo(3, 4);
  coo.add(0, 3, 1.0);
  coo.add(1, 0, 2.0);
  coo.add(2, 2, 3.0);
  coo.add(0, 1, 4.0);
  auto a = coo.to_csr();
  auto t = a.transpose();
  EXPECT_EQ(t.rows(), 4);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_TRUE(t.validate());
  EXPECT_DOUBLE_EQ(t.at(3, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.at(0, 1), 2.0);
  auto tt = t.transpose();
  EXPECT_EQ(tt.nnz(), a.nnz());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j : a.row_cols(i)) {
      EXPECT_DOUBLE_EQ(tt.at(i, j), a.at(i, j));
    }
  }
}

TEST(CsrMatrix, SymmetryCheck) {
  EXPECT_TRUE(small_example().is_symmetric(0.0));
  CooBuilder coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 1.0);
  coo.add(0, 1, 0.5);
  auto a = coo.to_csr();
  EXPECT_FALSE(a.is_symmetric(0.0));
  EXPECT_TRUE(a.is_symmetric(0.6));  // tolerance covers the asymmetry
}

TEST(CsrMatrix, ExtractSubmatrix) {
  auto a = small_example();
  // Keep rows {1, 2}, columns {1, 2} -> 2x2 trailing block.
  std::vector<index_t> rows{1, 2};
  std::vector<index_t> col_map{-1, 0, 1};
  auto s = a.extract(rows, col_map, 2);
  EXPECT_EQ(s.rows(), 2);
  EXPECT_EQ(s.cols(), 2);
  EXPECT_TRUE(s.validate());
  EXPECT_DOUBLE_EQ(s.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(s.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(s.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(s.at(1, 1), 2.0);
}

TEST(CsrMatrix, ExtractWithReorderingSortsRows) {
  auto a = small_example();
  // Reverse the ordering entirely.
  std::vector<index_t> rows{2, 1, 0};
  std::vector<index_t> col_map{2, 1, 0};
  auto s = a.extract(rows, col_map, 3);
  EXPECT_TRUE(s.validate());
  EXPECT_DOUBLE_EQ(s.at(0, 0), 2.0);   // old (2,2)
  EXPECT_DOUBLE_EQ(s.at(0, 1), -1.0);  // old (2,1)
  EXPECT_DOUBLE_EQ(s.at(2, 2), 2.0);   // old (0,0)
}

TEST(CsrMatrix, ExtractAllocatesEachArrayOnce) {
  // A rectangular cut, so the constructor records no diagonal positions:
  // one allocation per output array, each at its exact size.
  namespace alloc_hook = prof::alloc_hook;
  ASSERT_TRUE(alloc_hook::available());
  const auto a = poisson2d_5pt(40, 40);
  std::vector<index_t> rows(800);
  std::iota(rows.begin(), rows.end(), index_t{400});
  std::vector<index_t> col_map(static_cast<std::size_t>(a.cols()), -1);
  std::iota(col_map.begin(), col_map.begin() + 1200, index_t{0});
  const std::uint64_t calls = alloc_hook::allocations();
  const std::uint64_t bytes = alloc_hook::bytes();
  const CsrMatrix s = a.extract(rows, col_map, 1200);
  const std::uint64_t got_calls = alloc_hook::allocations() - calls;
  const std::uint64_t got_bytes = alloc_hook::bytes() - bytes;
  ASSERT_TRUE(s.validate());
  ASSERT_GT(s.nnz(), 2000);
  const auto nnz = static_cast<std::uint64_t>(s.nnz());
  EXPECT_EQ(got_calls, 3u);
  EXPECT_EQ(got_bytes, (rows.size() + 1) * sizeof(csr_index_t) +
                           nnz * (sizeof(csr_index_t) + sizeof(value_t)));
}

TEST(CsrMatrix, ExtractRejectsAColumnPastNewCols) {
  // Row 0 of the 2x2-grid Laplacian holds columns {0, 1, 2}; the map sends
  // column 2 to 7, past a two-column block. Release builds check it too.
  const auto a = poisson2d_5pt(2, 2);
  ASSERT_NE(a.at(0, 2), 0.0);
  const std::vector<index_t> rows{0};
  const std::vector<index_t> col_map{0, -1, 7, -1};
  EXPECT_THROW(a.extract(rows, col_map, 2), util::CheckError);
}

TEST(CsrMatrix, ConstructorValidatesShape) {
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1}, {0}, {1.0}), util::CheckError);
  EXPECT_THROW(CsrMatrix(1, 1, {0, 2}, {0}, {1.0}), util::CheckError);
}

TEST(CsrMatrix, DimensionsAbove32BitLimitAreRejected) {
  // Column counts up to the limit are fine (no per-column storage).
  EXPECT_EQ(CsrMatrix(1, kMaxCsrIndex, {0, 0}, {}, {}).cols(), kMaxCsrIndex);
  EXPECT_THROW(CsrMatrix(1, kMaxCsrIndex + 1, {0, 0}, {}, {}),
               util::CheckError);
  EXPECT_THROW(CsrMatrix(kMaxCsrIndex + 1, 1, {0}, {}, {}), util::CheckError);
  EXPECT_THROW(CooBuilder(kMaxCsrIndex + 1, 1), util::CheckError);
  EXPECT_THROW(CooBuilder(1, kMaxCsrIndex + 1), util::CheckError);
  const auto a = poisson2d_5pt(2, 2);
  const std::vector<index_t> rows{0, 1};
  const std::vector<index_t> col_map{0, 1, 2, 3};
  EXPECT_THROW(a.extract(rows, col_map, kMaxCsrIndex + 1), util::CheckError);
}


// Diagonal positions are recorded once at construction (square only); the
// sweep kernels read a_ii through them.
void expect_diag_pos_agrees(const CsrMatrix& a) {
  const auto pos = a.diag_pos();
  ASSERT_EQ(pos.size(), static_cast<std::size_t>(a.rows()));
  const auto diag = a.diagonal();
  for (index_t i = 0; i < a.rows(); ++i) {
    const index_t k = pos[static_cast<std::size_t>(i)];
    if (k >= 0) {
      EXPECT_GE(k, a.row_ptr()[i]);
      EXPECT_LT(k, a.row_ptr()[i + 1]);
      EXPECT_EQ(a.col_idx()[static_cast<std::size_t>(k)], i);
      EXPECT_EQ(a.values()[static_cast<std::size_t>(k)], a.at(i, i));
    } else {
      for (index_t j : a.row_cols(i)) EXPECT_NE(j, i);
      EXPECT_EQ(a.at(i, i), 0.0);
    }
    EXPECT_EQ(diag[static_cast<std::size_t>(i)], a.at(i, i));
  }
}

TEST(CsrMatrix, DiagonalPositionsAgreeWithAt) {
  expect_diag_pos_agrees(small_example());
  expect_diag_pos_agrees(poisson2d_9pt(6, 5));
  expect_diag_pos_agrees(poisson2d_9pt(6, 5).transpose());
}

TEST(CsrMatrix, DiagonalPositionsMissingDiagonalAndEmptyRows) {
  // [ 4  1  0  0 ]
  // [ 0  0  0  0 ]   empty row
  // [ 0  3  0  5 ]   no stored diagonal
  // [ 0  0  0 -2 ]
  CooBuilder coo(4, 4);
  coo.add(0, 0, 4.0);
  coo.add(0, 1, 1.0);
  coo.add(2, 1, 3.0);
  coo.add(2, 3, 5.0);
  coo.add(3, 3, -2.0);
  const auto a = coo.to_csr();
  const auto pos = a.diag_pos();
  ASSERT_EQ(pos.size(), 4u);
  EXPECT_EQ(pos[0], 0);
  EXPECT_EQ(pos[1], -1);
  EXPECT_EQ(pos[2], -1);
  EXPECT_EQ(pos[3], 4);
  expect_diag_pos_agrees(a);
  EXPECT_EQ(a.diagonal(), (std::vector<value_t>{4.0, 0.0, 0.0, -2.0}));
  EXPECT_FALSE(a.has_full_diagonal());
  // The empty square matrix records an empty position list.
  EXPECT_TRUE(CsrMatrix(0, 0, {0}, {}, {}).diag_pos().empty());
  // A non-monotone row_ptr (as a corrupt binary stream delivers, ahead of
  // validate()) stays in bounds while the positions are recorded.
  const CsrMatrix bad(3, 3, {0, 3, 1, 3}, {0, 1, 2}, {1.0, 2.0, 3.0});
  EXPECT_FALSE(bad.validate());
  EXPECT_EQ(bad.diag_pos()[0], 0);
}

TEST(CsrMatrix, NonSquareRecordsNoDiagonalPositions) {
  CooBuilder coo(2, 3);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 2.0);
  coo.add(1, 2, 3.0);
  const auto a = coo.to_csr();
  EXPECT_TRUE(a.diag_pos().empty());
  EXPECT_TRUE(a.transpose().diag_pos().empty());
  // diagonal() still answers for rectangular matrices.
  EXPECT_EQ(a.diagonal(), (std::vector<value_t>{1.0, 2.0}));
}

}  // namespace
}  // namespace dsouth::sparse
