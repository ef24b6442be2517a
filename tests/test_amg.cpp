#include "multigrid/amg.hpp"

#include <gtest/gtest.h>

#include <set>

#include "sparse/dense.hpp"
#include "sparse/fem.hpp"
#include "sparse/mesh.hpp"
#include "sparse/proxy_suite.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/stencils.hpp"
#include "sparse/vec.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsouth::multigrid {
namespace {

using sparse::CsrMatrix;
using sparse::value_t;

// ------------------------------------------------------------- spgemm

TEST(Spgemm, MatchesDenseProduct) {
  auto a = sparse::poisson2d_5pt(4, 5);     // 20x20
  auto b = sparse::poisson2d_9pt(4, 5);     // 20x20
  auto c = sparse::spgemm(a, b);
  auto da = sparse::DenseMatrix::from_csr(a);
  auto db = sparse::DenseMatrix::from_csr(b);
  for (index_t i = 0; i < c.rows(); ++i) {
    for (index_t j = 0; j < c.cols(); ++j) {
      value_t ref = 0.0;
      for (index_t k = 0; k < a.cols(); ++k) ref += da(i, k) * db(k, j);
      EXPECT_NEAR(c.at(i, j), ref, 1e-12) << i << "," << j;
    }
  }
  EXPECT_TRUE(c.validate());
}

TEST(Spgemm, RectangularShapes) {
  // (2x3) * (3x2) = 2x2.
  CsrMatrix a(2, 3, {0, 2, 3}, {0, 2, 1}, {1.0, 2.0, 3.0});
  CsrMatrix b(3, 2, {0, 1, 2, 3}, {1, 0, 0}, {4.0, 5.0, 6.0});
  auto c = sparse::spgemm(a, b);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 4.0);   // 1*4
  EXPECT_DOUBLE_EQ(c.at(0, 0), 12.0);  // 2*6
  EXPECT_DOUBLE_EQ(c.at(1, 0), 15.0);  // 3*5
}

TEST(Spgemm, DimensionMismatchThrows) {
  auto a = sparse::poisson2d_5pt(3, 3);
  CsrMatrix b(4, 4, {0, 0, 0, 0, 0}, {}, {});
  EXPECT_THROW(sparse::spgemm(a, b), util::CheckError);
}

TEST(Spgemm, GalerkinPreservesSpd) {
  auto a = sparse::poisson2d_5pt(8, 8);
  index_t num_agg = 0;
  auto agg = aggregate(a, 0.08, &num_agg);
  auto p = aggregation_prolongator(agg, num_agg);
  auto ac = sparse::galerkin_product(a, p);
  EXPECT_EQ(ac.rows(), num_agg);
  EXPECT_TRUE(ac.is_symmetric(1e-12));
  EXPECT_NO_THROW(sparse::DenseCholesky{ac});
}

// ---------------------------------------------------------- aggregation

TEST(Aggregation, CoversEveryRowWithDenseIds) {
  auto a = sparse::poisson2d_5pt(10, 10);
  index_t num_agg = 0;
  auto agg = aggregate(a, 0.08, &num_agg);
  ASSERT_EQ(agg.size(), 100u);
  std::set<index_t> ids(agg.begin(), agg.end());
  EXPECT_EQ(static_cast<index_t>(ids.size()), num_agg);
  EXPECT_EQ(*ids.begin(), 0);
  EXPECT_EQ(*ids.rbegin(), num_agg - 1);
  // Meaningful coarsening on a mesh graph.
  EXPECT_LT(num_agg, 50);
  EXPECT_GT(num_agg, 5);
}

TEST(Aggregation, HugeThresholdMakesSingletons) {
  auto a = sparse::poisson2d_5pt(4, 4);
  index_t num_agg = 0;
  auto agg = aggregate(a, 1e9, &num_agg);
  EXPECT_EQ(num_agg, 16);  // nothing is "strong": all singletons
  (void)agg;
}

TEST(Aggregation, ProlongatorHasOneEntryPerRow) {
  auto a = sparse::poisson2d_5pt(6, 6);
  index_t num_agg = 0;
  auto agg = aggregate(a, 0.08, &num_agg);
  auto p = aggregation_prolongator(agg, num_agg);
  EXPECT_EQ(p.rows(), 36);
  EXPECT_EQ(p.cols(), num_agg);
  EXPECT_EQ(p.nnz(), 36);
  for (index_t i = 0; i < p.rows(); ++i) {
    ASSERT_EQ(p.row_nnz(i), 1);
    EXPECT_DOUBLE_EQ(p.row_vals(i)[0], 1.0);
  }
}

// ----------------------------------------------------------------- AMG

TEST(Amg, BuildsMultiLevelHierarchyOnPoisson) {
  auto amg = amg_hierarchy(sparse::poisson2d_5pt(24, 24));
  EXPECT_GE(amg.num_levels(), 2);
  EXPECT_LE(amg.level_matrix(amg.num_levels() - 1).rows(), 64);
  // Levels shrink monotonically.
  for (int l = 1; l < amg.num_levels(); ++l) {
    EXPECT_LT(amg.level_matrix(l).rows(), amg.level_matrix(l - 1).rows());
  }
  EXPECT_LT(amg.operator_complexity(), 2.0);
}

TEST(Amg, VcycleContractsOnPoisson) {
  auto a = sparse::poisson2d_5pt(24, 24);
  auto amg = amg_hierarchy(a);
  util::Rng rng(1);
  std::vector<value_t> b(static_cast<std::size_t>(a.rows()));
  rng.fill_uniform(b, -1.0, 1.0);
  std::vector<value_t> x(b.size(), 0.0);
  auto smoother = make_gauss_seidel_smoother();
  const double rel = amg.solve_relative_residual(b, x, *smoother, 12);
  EXPECT_LT(rel, 1e-6);
}

TEST(Amg, WorksOnUnstructuredFemProblem) {
  auto mesh = sparse::make_perturbed_grid_mesh(25, 25, 0.25, 3);
  auto a = sparse::assemble_p1_poisson(mesh);
  auto amg = amg_hierarchy(a);
  util::Rng rng(2);
  std::vector<value_t> b(static_cast<std::size_t>(a.rows()));
  rng.fill_uniform(b, -1.0, 1.0);
  std::vector<value_t> x(b.size(), 0.0);
  auto smoother = make_gauss_seidel_smoother();
  const double rel = amg.solve_relative_residual(b, x, *smoother, 15);
  EXPECT_LT(rel, 1e-5);
}

TEST(Amg, DistSouthwellSmootherWorksInAmg) {
  auto mesh = sparse::make_perturbed_grid_mesh(21, 21, 0.25, 4);
  auto a = sparse::assemble_p1_poisson(mesh);
  auto amg = amg_hierarchy(a);
  util::Rng rng(3);
  std::vector<value_t> b(static_cast<std::size_t>(a.rows()));
  rng.fill_uniform(b, -1.0, 1.0);
  std::vector<value_t> x(b.size(), 0.0);
  auto smoother = make_distributed_southwell_smoother(1.0);
  const double rel = amg.solve_relative_residual(b, x, *smoother, 15);
  EXPECT_LT(rel, 1e-5);
}

TEST(Amg, ElasticityConvergesWithGsSmoothing) {
  // Scalar smoothed aggregation on elasticity is known to be slow (the
  // near-null space is rigid-body modes, not constants, and this AMG has
  // no null-space input), but V-cycles must still make steady progress.
  auto proxy = sparse::make_proxy("msdoorp", 0.02);
  auto amg = amg_hierarchy(proxy.a);
  util::Rng rng(4);
  std::vector<value_t> b(static_cast<std::size_t>(proxy.a.rows()));
  rng.fill_uniform(b, -1.0, 1.0);
  std::vector<value_t> x(b.size(), 0.0);
  auto smoother = make_gauss_seidel_smoother();
  const double rel = amg.solve_relative_residual(b, x, *smoother, 25);
  EXPECT_LT(rel, 5e-2);
}

TEST(Amg, TinyMatrixIsSingleLevelDirectSolve) {
  auto a = sparse::poisson2d_5pt(4, 4);  // 16 rows: already coarse enough
  auto amg = amg_hierarchy(a);
  EXPECT_EQ(amg.num_levels(), 1);
  util::Rng rng(5);
  std::vector<value_t> b(16);
  rng.fill_uniform(b, -1.0, 1.0);
  std::vector<value_t> x(16, 0.0);
  auto smoother = make_gauss_seidel_smoother();
  const double rel = amg.solve_relative_residual(b, x, *smoother, 1);
  EXPECT_LT(rel, 1e-12);
}

}  // namespace
}  // namespace dsouth::multigrid
