/// Cross-validation tests: independent implementations in this library
/// that must agree exactly (or to rounding) on overlapping cases. These
/// are the strongest correctness checks in the suite, because the two
/// sides are coded from different formulations of the same math.

#include <gtest/gtest.h>

#include <numeric>

#include "core/classic.hpp"
#include "core/parallel_southwell.hpp"
#include "dist/block_jacobi.hpp"
#include "dist/driver.hpp"
#include "dist/parallel_southwell.hpp"
#include "multigrid/hierarchy.hpp"
#include "sparse/dense.hpp"
#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "sparse/vec.hpp"
#include "util/rng.hpp"

namespace dsouth {
namespace {

using sparse::CsrMatrix;
using sparse::index_t;
using sparse::value_t;

struct Problem {
  CsrMatrix a;
  std::vector<value_t> b, x0;
};

Problem scaled_poisson(index_t nx, index_t ny, std::uint64_t seed) {
  Problem p;
  p.a = sparse::symmetric_unit_diagonal_scale(sparse::poisson2d_5pt(nx, ny)).a;
  p.b.resize(static_cast<std::size_t>(p.a.rows()));
  p.x0.assign(p.b.size(), 0.0);
  util::Rng rng(seed);
  rng.fill_uniform(p.b, -1.0, 1.0);
  return p;
}

graph::Partition singleton_partition(index_t n) {
  graph::Partition part;
  part.num_parts = n;
  part.part.resize(static_cast<std::size_t>(n));
  std::iota(part.part.begin(), part.part.end(), index_t{0});
  return part;
}

/// Block Jacobi with one row per rank IS point Jacobi: the distributed
/// engine must match the scalar engine step for step.
TEST(CrossValidation, SingletonBlockJacobiIsPointJacobi) {
  auto p = scaled_poisson(7, 7, 1);
  const index_t n = p.a.rows();
  dist::DistLayout layout(p.a, singleton_partition(n));
  simmpi::Runtime rt(static_cast<int>(n));
  dist::BlockJacobi solver(layout, rt, p.b, p.x0);

  core::ScalarRelaxationEngine eng(p.a, p.b, p.x0);
  std::vector<index_t> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), index_t{0});

  for (int step = 0; step < 8; ++step) {
    solver.step();
    eng.relax_simultaneously(all, 1.0);
    auto x = solver.gather_x();
    for (index_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[static_cast<std::size_t>(i)], eng.x()[i], 1e-12)
          << "step " << step << " row " << i;
    }
  }
}

/// Parallel Southwell with one row per rank matches the scalar Parallel
/// Southwell runner (same criterion, same simultaneous-relaxation
/// semantics) for a full trajectory.
TEST(CrossValidation, SingletonParallelSouthwellMatchesScalar) {
  auto p = scaled_poisson(8, 8, 2);
  const index_t n = p.a.rows();
  dist::DistLayout layout(p.a, singleton_partition(n));
  simmpi::Runtime rt(static_cast<int>(n));
  dist::ParallelSouthwell solver(layout, rt, p.b, p.x0);

  core::ParallelSouthwellOptions opt;
  opt.base.max_sweeps = 100000;
  opt.max_parallel_steps = 12;
  auto scalar = core::run_parallel_southwell(p.a, p.b, p.x0, opt);

  for (std::size_t k = 0; k < scalar.step_marks.size(); ++k) {
    auto stats = solver.step();
    const auto mark = scalar.step_marks[k];
    const index_t scalar_relaxed =
        scalar.points[mark].relaxations -
        (mark > 0 ? scalar.points[mark - 1].relaxations : 0);
    EXPECT_EQ(stats.relaxations, scalar_relaxed) << "step " << k;
    EXPECT_NEAR(solver.global_residual_norm(),
                scalar.points[mark].residual_norm, 1e-10)
        << "step " << k;
  }
}

/// SOR with ω = 1 is Gauss–Seidel, bit for bit.
TEST(CrossValidation, SorWithUnitOmegaIsGaussSeidel) {
  auto p = scaled_poisson(6, 6, 3);
  core::ScalarRunOptions opt;
  opt.max_sweeps = 4;
  auto gs = core::run_gauss_seidel(p.a, p.b, p.x0, opt);
  auto sor = core::run_sor(p.a, p.b, p.x0, 1.0, opt);
  ASSERT_EQ(gs.points.size(), sor.points.size());
  for (std::size_t k = 0; k < gs.points.size(); ++k) {
    EXPECT_DOUBLE_EQ(gs.points[k].residual_norm,
                     sor.points[k].residual_norm);
  }
}

/// A multigrid hierarchy whose finest level is the coarsest grid solves
/// exactly — compare against dense Cholesky on the same operator.
TEST(CrossValidation, CoarsestVcycleMatchesDirectSolve) {
  auto mg = multigrid::geometric_poisson_hierarchy(3);
  util::Rng rng(4);
  std::vector<value_t> b(9);
  rng.fill_uniform(b, -1.0, 1.0);
  std::vector<value_t> x(9, 0.0);
  auto smoother = multigrid::make_gauss_seidel_smoother();
  mg.vcycle(b, x, *smoother);

  sparse::DenseCholesky chol(mg.level_matrix(0));
  std::vector<value_t> x_direct(9);
  chol.solve(b, x_direct);
  for (int i = 0; i < 9; ++i) EXPECT_NEAR(x[i], x_direct[i], 1e-12);
}

/// The distributed initial residual (assembled from per-rank blocks) must
/// equal the globally computed one for any partition.
TEST(CrossValidation, DistributedInitialResidualMatchesGlobal) {
  auto p = scaled_poisson(9, 9, 5);
  util::Rng rng(6);
  rng.fill_uniform(p.x0, -1.0, 1.0);
  auto g = graph::Graph::from_matrix_structure(p.a);
  for (index_t parts : {1, 3, 7, 20}) {
    auto part = graph::partition_recursive_bisection(g, parts);
    dist::DistLayout layout(p.a, part);
    simmpi::Runtime rt(static_cast<int>(parts));
    dist::BlockJacobi solver(layout, rt, p.b, p.x0);
    std::vector<value_t> r(p.b.size());
    p.a.residual(p.b, p.x0, r);
    EXPECT_NEAR(solver.global_residual_norm(), sparse::norm2(r), 1e-12)
        << parts << " parts";
  }
}

/// One-part Block Jacobi, Parallel Southwell and Distributed Southwell all
/// degenerate to the same method (a global GS sweep per step, always
/// active) and must produce identical iterates.
TEST(CrossValidation, OnePartDistributedMethodsCoincide) {
  auto p = scaled_poisson(8, 8, 7);
  util::Rng rng(8);
  rng.fill_uniform(p.x0, -1.0, 1.0);
  auto part = graph::partition_contiguous_blocks(p.a.rows(), 1);
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 6;
  auto bj = dist::run_distributed(dist::DistMethod::kBlockJacobi, p.a, part,
                                  p.b, p.x0, opt);
  auto ps = dist::run_distributed(dist::DistMethod::kParallelSouthwell, p.a,
                                  part, p.b, p.x0, opt);
  auto ds = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                  p.a, part, p.b, p.x0, opt);
  for (std::size_t k = 0; k < bj.residual_norm.size(); ++k) {
    EXPECT_DOUBLE_EQ(bj.residual_norm[k], ps.residual_norm[k]);
    EXPECT_DOUBLE_EQ(bj.residual_norm[k], ds.residual_norm[k]);
  }
  // And nobody sends any messages (no neighbors).
  EXPECT_DOUBLE_EQ(bj.comm_cost.back(), 0.0);
  EXPECT_DOUBLE_EQ(ps.comm_cost.back(), 0.0);
  EXPECT_DOUBLE_EQ(ds.comm_cost.back(), 0.0);
}

}  // namespace
}  // namespace dsouth
