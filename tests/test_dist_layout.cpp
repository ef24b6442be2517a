#include "dist/layout.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/proxy_suite.hpp"
#include "sparse/stencils.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsouth::dist {
namespace {

graph::Partition make_partition(const CsrMatrix& a, index_t k) {
  auto g = graph::Graph::from_matrix_structure(a);
  return graph::partition_recursive_bisection(g, k);
}

TEST(DistLayout, ValidatesOnPoissonGrid) {
  auto a = sparse::poisson2d_5pt(12, 12);
  auto p = make_partition(a, 8);
  DistLayout layout(a, p);
  EXPECT_EQ(layout.num_ranks(), 8);
  EXPECT_EQ(layout.global_rows(), 144);
  EXPECT_TRUE(layout.validate(a));
}

TEST(DistLayout, ValidatesOnElasticityProxy) {
  auto proxy = sparse::make_proxy("msdoorp", 0.02);
  auto p = make_partition(proxy.a, 12);
  DistLayout layout(proxy.a, p);
  EXPECT_TRUE(layout.validate(proxy.a));
}

TEST(DistLayout, SingletonPartitionHasOneRowPerRank) {
  auto a = sparse::poisson2d_5pt(4, 4);
  graph::Partition p;
  p.num_parts = 16;
  p.part.resize(16);
  for (index_t i = 0; i < 16; ++i) p.part[static_cast<std::size_t>(i)] = i;
  DistLayout layout(a, p);
  EXPECT_TRUE(layout.validate(a));
  for (int r = 0; r < 16; ++r) {
    EXPECT_EQ(layout.rank(r).num_rows(), 1);
    // Interior rank 5 (grid point (1,1)) has 4 neighbors.
  }
  EXPECT_EQ(layout.rank(5).neighbors.size(), 4u);
  EXPECT_EQ(layout.rank(0).neighbors.size(), 2u);
}

TEST(DistLayout, RowMapsAreConsistent) {
  auto a = sparse::poisson2d_5pt(10, 7);
  auto p = make_partition(a, 5);
  DistLayout layout(a, p);
  for (index_t g = 0; g < a.rows(); ++g) {
    const int r = layout.rank_of_row(g);
    const index_t l = layout.local_of_row(g);
    EXPECT_EQ(layout.rank(r).rows[static_cast<std::size_t>(l)], g);
  }
}

TEST(DistLayout, ScatterGatherRoundTrip) {
  auto a = sparse::poisson2d_5pt(9, 9);
  auto p = make_partition(a, 6);
  DistLayout layout(a, p);
  util::Rng rng(3);
  std::vector<value_t> v(81);
  rng.fill_uniform(v, -5.0, 5.0);
  auto locals = layout.scatter(v);
  auto back = layout.gather(locals);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_DOUBLE_EQ(back[i], v[i]);
}

TEST(DistLayout, LocalBlocksPartitionTheMatrix) {
  // nnz(A) = Σ nnz(A_pp) + Σ nnz(A_pq): every entry lands in exactly one
  // block.
  auto a = sparse::poisson2d_9pt(8, 8);
  auto p = make_partition(a, 4);
  DistLayout layout(a, p);
  index_t total = 0;
  for (int r = 0; r < layout.num_ranks(); ++r) {
    const auto& rd = layout.rank(r);
    total += rd.a_local.nnz();
    for (const auto& nb : rd.neighbors) total += nb.a_pq.nnz();
  }
  EXPECT_EQ(total, a.nnz());
}

TEST(DistLayout, TransposedBlocksMatch) {
  auto a = sparse::poisson2d_5pt(8, 8);
  auto p = make_partition(a, 4);
  DistLayout layout(a, p);
  for (int r = 0; r < layout.num_ranks(); ++r) {
    for (const auto& nb : layout.rank(r).neighbors) {
      // a_qp == a_pqᵀ entry by entry, under the send_rows_local row map.
      auto t = nb.a_pq.transpose();
      ASSERT_EQ(t.nnz(), nb.a_qp.nnz());
      for (index_t g = 0; g < t.rows(); ++g) {
        for (index_t s : t.row_cols(g)) {
          const index_t li = nb.send_rows_local[static_cast<std::size_t>(s)];
          EXPECT_EQ(t.at(g, s), nb.a_qp.at(g, li));
        }
      }
    }
  }
}

TEST(DistLayout, CouplingBlocksCoverOnlyBoundaryRows) {
  auto a = sparse::poisson2d_9pt(16, 16);
  auto p = make_partition(a, 4);
  DistLayout layout(a, p);
  ASSERT_TRUE(layout.validate(a));
  for (int r = 0; r < layout.num_ranks(); ++r) {
    const auto& rd = layout.rank(r);
    std::vector<index_t> uni;
    for (const auto& nb : rd.neighbors) {
      EXPECT_EQ(nb.a_pq.rows(),
                static_cast<index_t>(nb.send_rows_local.size()));
      for (index_t s = 0; s < nb.a_pq.rows(); ++s) {
        EXPECT_GT(nb.a_pq.row_nnz(s), 0);  // every stored row is coupled
      }
      uni.insert(uni.end(), nb.send_rows_local.begin(),
                 nb.send_rows_local.end());
    }
    std::sort(uni.begin(), uni.end());
    uni.erase(std::unique(uni.begin(), uni.end()), uni.end());
    EXPECT_EQ(rd.boundary_rows, uni);
    EXPECT_LT(rd.boundary_rows.size(), rd.rows.size());  // interior exists
  }
}

TEST(DistLayout, SubtractCouplingMatchesFullHeightProduct) {
  // Boundary-row accumulation is bit-identical to r_p -= A_pq x_q over the
  // full-height block (the skipped rows only ever added -0.0).
  auto a = sparse::poisson2d_9pt(9, 9);
  auto p = make_partition(a, 5);
  DistLayout layout(a, p);
  util::Rng rng(5);
  for (int r = 0; r < layout.num_ranks(); ++r) {
    const auto& rd = layout.rank(r);
    for (const auto& nb : rd.neighbors) {
      std::vector<value_t> xq(nb.ghost_rows.size());
      rng.fill_uniform(xq, -1.0, 1.0);
      std::vector<value_t> got(rd.rows.size());
      rng.fill_uniform(got, -1.0, 1.0);
      got[0] = -0.0;  // survives untouched unless row 0 is coupled
      std::vector<value_t> want = got;
      nb.subtract_coupling(xq, got);
      for (index_t li = 0; li < rd.num_rows(); ++li) {
        value_t sum = 0.0;
        for (std::size_t g = 0; g < nb.ghost_rows.size(); ++g) {
          const value_t v =
              a.at(rd.rows[static_cast<std::size_t>(li)], nb.ghost_rows[g]);
          if (v != 0.0) sum += v * xq[g];
        }
        want[static_cast<std::size_t>(li)] += -1.0 * sum;
      }
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(want[i]))
            << "rank " << r << " row " << i;
      }
    }
  }
}

TEST(DistLayout, ValidateRejectsBrokenBlocks) {
  auto a = sparse::poisson2d_5pt(8, 8);
  auto p = make_partition(a, 4);
  const DistLayout layout(a, p);
  ASSERT_TRUE(layout.validate(a));
  // A matrix with one perturbed coupling value no longer matches.
  auto vals = std::vector<value_t>(a.values().begin(), a.values().end());
  const auto& nb = layout.rank(0).neighbors.front();
  const index_t gi = layout.rank(0).rows[static_cast<std::size_t>(
      nb.send_rows_local.front())];
  const auto cols = a.row_cols(gi);
  for (std::size_t k = 0; k < cols.size(); ++k) {
    if (layout.rank_of_row(cols[k]) == nb.rank) {
      vals[static_cast<std::size_t>(a.row_ptr()[gi]) + k] += 1.0;
      break;
    }
  }
  const CsrMatrix perturbed(
      a.rows(), a.cols(),
      std::vector<sparse::csr_index_t>(a.row_ptr().begin(), a.row_ptr().end()),
      std::vector<sparse::csr_index_t>(a.col_idx().begin(), a.col_idx().end()),
      std::move(vals));
  EXPECT_FALSE(layout.validate(perturbed));
  // A matrix with an extra entry breaks the nnz partition.
  auto bigger = sparse::poisson2d_9pt(8, 8);
  EXPECT_FALSE(layout.validate(bigger));
}

TEST(DistLayout, ValidateComparesLocalBlockValues) {
  auto a = sparse::poisson2d_5pt(8, 8);
  const DistLayout layout(a, make_partition(a, 4));
  ASSERT_TRUE(layout.validate(a));
  // A(0,0) lands in a_local, which no coupling block holds.
  auto vals = std::vector<value_t>(a.values().begin(), a.values().end());
  vals[static_cast<std::size_t>(a.diag_pos()[0])] += 1.0;
  const CsrMatrix perturbed(
      a.rows(), a.cols(),
      std::vector<sparse::csr_index_t>(a.row_ptr().begin(), a.row_ptr().end()),
      std::vector<sparse::csr_index_t>(a.col_idx().begin(), a.col_idx().end()),
      std::move(vals));
  EXPECT_FALSE(layout.validate(perturbed));
}

TEST(DistLayout, NeighborRelationIsSymmetric) {
  auto a = sparse::poisson2d_5pt(10, 10);
  auto p = make_partition(a, 7);
  DistLayout layout(a, p);
  for (int r = 0; r < layout.num_ranks(); ++r) {
    for (const auto& nb : layout.rank(r).neighbors) {
      EXPECT_GE(layout.rank(nb.rank).neighbor_index(r), 0);
    }
  }
}

TEST(DistLayout, RejectsInvalidPartition) {
  auto a = sparse::poisson2d_5pt(3, 3);
  graph::Partition bad;
  bad.num_parts = 2;
  bad.part = {0, 0, 0};  // wrong size
  EXPECT_THROW(DistLayout(a, bad), util::CheckError);
}

TEST(DistLayout, RejectsStructurallyNonsymmetricMatrix) {
  // Rows {0, 1} on rank 0 and {2, 3} on rank 1, unit diagonal, and the
  // given off-diagonal entries.
  using Entries = std::vector<std::pair<index_t, index_t>>;
  const auto expect_rejected = [](const Entries& off) {
    sparse::CooBuilder coo(4, 4);
    for (index_t i = 0; i < 4; ++i) coo.add(i, i, 4.0);
    for (const auto& [i, j] : off) coo.add(i, j, -1.0);
    graph::Partition p;
    p.num_parts = 2;
    p.part = {0, 0, 1, 1};
    try {
      const DistLayout layout(coo.to_csr(), p);
      ADD_FAILURE() << "a structurally nonsymmetric matrix was accepted";
    } catch (const util::CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
      EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    }
  };
  // A(1,3) has no A(3,1): rank 0 would send two values to rank 1, which
  // expects one.
  expect_rejected({{0, 2}, {2, 0}, {1, 3}});
  // Both ranks couple rows {0, 1} to rows {2, 3}, so the channel widths
  // agree, but A(0,2), A(1,3) are not mirrored by A(2,1), A(3,0).
  expect_rejected({{0, 2}, {1, 3}, {2, 1}, {3, 0}});
}

TEST(DistLayout, ContiguousBlocksWork) {
  auto a = sparse::poisson2d_5pt(6, 6);
  auto p = graph::partition_contiguous_blocks(36, 5);
  DistLayout layout(a, p);
  EXPECT_TRUE(layout.validate(a));
}

}  // namespace
}  // namespace dsouth::dist
