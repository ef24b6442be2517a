#include "multigrid/hierarchy.hpp"

#include <gtest/gtest.h>

#include <string>

#include "multigrid/amg.hpp"
#include "sparse/stencils.hpp"
#include "sparse/vec.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsouth::multigrid {
namespace {

std::vector<value_t> random_rhs(index_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<value_t> b(static_cast<std::size_t>(n * n));
  rng.fill_uniform(b, -1.0, 1.0);
  return b;
}

TEST(Hierarchy, LevelsHalveDownToThree) {
  auto mg = geometric_poisson_hierarchy(31);
  EXPECT_EQ(mg.num_levels(), 4);
  EXPECT_EQ(mg.level_matrix(0).rows(), 31 * 31);
  EXPECT_EQ(mg.level_matrix(1).rows(), 15 * 15);
  EXPECT_EQ(mg.level_matrix(2).rows(), 7 * 7);
  EXPECT_EQ(mg.level_matrix(3).rows(), 3 * 3);
}

TEST(Hierarchy, RejectsBadDimensions) {
  EXPECT_THROW(geometric_poisson_hierarchy(4), util::CheckError);
  // 9 -> 4 is even; the sequence does not reach 3.
  EXPECT_THROW(geometric_poisson_hierarchy(9), util::CheckError);
}

TEST(Hierarchy, RejectsNonSquareOperatorAndMissingTransfer) {
  std::vector<Hierarchy::Level> wide;
  wide.push_back({CsrMatrix(2, 3, {0, 1, 2}, {0, 1}, {1.0, 1.0}), nullptr});
  EXPECT_THROW(Hierarchy(std::move(wide)), util::CheckError);
  std::vector<Hierarchy::Level> untied;
  untied.push_back({sparse::poisson2d_5pt(7, 7), nullptr});
  untied.push_back({sparse::poisson2d_5pt(3, 3), nullptr});
  EXPECT_THROW(Hierarchy(std::move(untied)), util::CheckError);
}

TEST(Hierarchy, SolveRejectsFewerThanOneCycle) {
  // Zero cycles would report ‖r⁰‖/‖r⁰‖ = 1 as if it were a result.
  auto geo = geometric_poisson_hierarchy(7);
  auto amg = amg_hierarchy(sparse::poisson2d_5pt(12, 12));
  ASSERT_EQ(amg.num_levels(), 2);
  auto smoother = make_gauss_seidel_smoother();
  for (Hierarchy* mg : {&geo, &amg}) {
    const auto n = static_cast<std::size_t>(mg->level_matrix(0).rows());
    util::Rng rng(20);
    std::vector<value_t> b(n), x(n, 0.0);
    rng.fill_uniform(b, -1.0, 1.0);
    for (int cycles : {0, -2}) {
      try {
        mg->solve_relative_residual(b, x, *smoother, cycles);
        ADD_FAILURE() << "accepted cycles = " << cycles;
      } catch (const util::CheckError& e) {
        EXPECT_NE(std::string(e.what()).find("got " + std::to_string(cycles)),
                  std::string::npos)
            << e.what();
      }
    }
    EXPECT_LT(mg->solve_relative_residual(b, x, *smoother, 1), 1.0);
  }
}

TEST(Hierarchy, CoarsestIsDirectSolve) {
  auto mg = geometric_poisson_hierarchy(3);
  EXPECT_EQ(mg.num_levels(), 1);
  auto b = random_rhs(3, 1);
  std::vector<value_t> x(9, 0.0);
  auto smoother = make_gauss_seidel_smoother();
  const double rel = mg.solve_relative_residual(b, x, *smoother, 1);
  EXPECT_LT(rel, 1e-12);  // single exact solve
}

TEST(VCycle, GsSmoothedCycleContractsStrongly) {
  auto mg = geometric_poisson_hierarchy(31);
  auto b = random_rhs(31, 2);
  std::vector<value_t> x(b.size(), 0.0);
  auto smoother = make_gauss_seidel_smoother();
  const auto& a = mg.level_matrix(0);
  std::vector<value_t> r(b.size());
  a.residual(b, x, r);
  double prev = sparse::norm2(r);
  for (int c = 0; c < 3; ++c) {
    mg.vcycle(b, x, *smoother);
    a.residual(b, x, r);
    const double now = sparse::norm2(r);
    EXPECT_LT(now, 0.2 * prev);  // classical V(1,1) factor ~0.1
    prev = now;
  }
}

TEST(VCycle, NineCyclesReachDeepResidual) {
  auto mg = geometric_poisson_hierarchy(31);
  auto b = random_rhs(31, 3);
  std::vector<value_t> x(b.size(), 0.0);
  auto smoother = make_gauss_seidel_smoother();
  const double rel = mg.solve_relative_residual(b, x, *smoother, 9);
  EXPECT_LT(rel, 1e-7);  // the Figure-6 regime
}

TEST(VCycle, GridSizeIndependentConvergence) {
  // The Figure 6 property: relative residual after 9 V-cycles does not
  // degrade with grid size.
  auto smoother = make_gauss_seidel_smoother();
  double rel15 = 0, rel63 = 0;
  {
    auto mg = geometric_poisson_hierarchy(15);
    auto b = random_rhs(15, 4);
    std::vector<value_t> x(b.size(), 0.0);
    rel15 = mg.solve_relative_residual(b, x, *smoother, 9);
  }
  {
    auto mg = geometric_poisson_hierarchy(63);
    auto b = random_rhs(63, 5);
    std::vector<value_t> x(b.size(), 0.0);
    rel63 = mg.solve_relative_residual(b, x, *smoother, 9);
  }
  EXPECT_LT(rel63, rel15 * 100.0);  // same order of magnitude
  EXPECT_LT(rel63, 1e-6);
}

TEST(VCycle, DistSouthwellSmootherAlsoContracts) {
  auto mg = geometric_poisson_hierarchy(31);
  auto b = random_rhs(31, 6);
  std::vector<value_t> x(b.size(), 0.0);
  auto smoother = make_distributed_southwell_smoother(1.0);
  const double rel = mg.solve_relative_residual(b, x, *smoother, 9);
  EXPECT_LT(rel, 1e-7);
}

TEST(VCycle, HalfSweepDistSouthwellStillConverges) {
  // §4.1: even a 1/2 sweep of Distributed Southwell gives
  // grid-independent convergence.
  auto mg = geometric_poisson_hierarchy(31);
  auto b = random_rhs(31, 7);
  std::vector<value_t> x(b.size(), 0.0);
  auto smoother = make_distributed_southwell_smoother(0.5);
  const double rel = mg.solve_relative_residual(b, x, *smoother, 9);
  EXPECT_LT(rel, 1e-4);
}

TEST(VCycle, JacobiSmootherWorksDamped) {
  auto mg = geometric_poisson_hierarchy(15);
  auto b = random_rhs(15, 8);
  std::vector<value_t> x(b.size(), 0.0);
  auto smoother = make_jacobi_smoother();
  const double rel = mg.solve_relative_residual(b, x, *smoother, 9);
  // Damped Jacobi V(1,1) contracts ≈ 0.35/cycle — much weaker than GS but
  // still multigrid-convergent.
  EXPECT_LT(rel, 1e-3);
}

TEST(Smoothers, GaussSeidelReducesResidualStandalone) {
  auto a = sparse::poisson2d_5pt(9, 9);
  util::Rng rng(9);
  std::vector<value_t> b(81), x(81, 0.0), r(81);
  rng.fill_uniform(b, -1.0, 1.0);
  auto smoother = make_gauss_seidel_smoother();
  a.residual(b, x, r);
  const double r0 = sparse::norm2(r);
  smoother->smooth(a, b, x);
  a.residual(b, x, r);
  EXPECT_LT(sparse::norm2(r), r0);
}

TEST(Smoothers, DistSouthwellBudgetIsExactPerApplication) {
  // One application of the "1 sweep" smoother relaxes exactly n rows.
  auto a = sparse::poisson2d_5pt(7, 7);
  util::Rng rng(10);
  std::vector<value_t> b(49), x(49, 0.0);
  rng.fill_uniform(b, -1.0, 1.0);
  auto smoother = make_distributed_southwell_smoother(1.0);
  std::vector<value_t> r(49);
  a.residual(b, x, r);
  const double r0 = sparse::norm2(r);
  smoother->smooth(a, b, x);
  a.residual(b, x, r);
  EXPECT_LT(sparse::norm2(r), r0);
}

TEST(Chebyshev, SmootherReducesResidualStandalone) {
  auto a = sparse::poisson2d_5pt(15, 15);
  util::Rng rng(14);
  std::vector<value_t> b(static_cast<std::size_t>(a.rows()));
  rng.fill_uniform(b, -1.0, 1.0);
  std::vector<value_t> x(b.size(), 0.0), r(b.size());
  auto smoother = make_chebyshev_smoother();
  a.residual(b, x, r);
  const double r0 = sparse::norm2(r);
  smoother->smooth(a, b, x);
  a.residual(b, x, r);
  EXPECT_LT(sparse::norm2(r), r0);
}

TEST(Chebyshev, MultigridConvergesGridIndependently) {
  // Chebyshev(3) V(1,1) is a classical massively-parallel smoother; the
  // multigrid rate must be grid-independent like GS's.
  auto smoother = make_chebyshev_smoother();
  double rel31 = 0.0, rel127 = 0.0;
  {
    auto mg = geometric_poisson_hierarchy(31);
    auto b = random_rhs(31, 15);
    std::vector<value_t> x(b.size(), 0.0);
    rel31 = mg.solve_relative_residual(b, x, *smoother, 9);
  }
  {
    auto mg = geometric_poisson_hierarchy(127);
    auto b = random_rhs(127, 16);
    std::vector<value_t> x(b.size(), 0.0);
    rel127 = mg.solve_relative_residual(b, x, *smoother, 9);
  }
  // Chebyshev(3) contracts ≈ 0.3/cycle here (weaker than GS, stronger
  // than damped Jacobi) — the property under test is grid independence.
  EXPECT_LT(rel31, 1e-4);
  EXPECT_LT(rel127, 100.0 * rel31);  // same order: grid independence
}

TEST(Chebyshev, MatrixReassignedInPlaceGetsItsOwnLambda) {
  // λ_max belongs to the matrix, not to its address: after smoothing with
  // the 3×3 operator, a smoother must treat the 31×31 operator assigned to
  // the same object exactly as a fresh smoother does.
  auto shared = make_chebyshev_smoother();
  auto a = sparse::poisson2d_5pt(3, 3);
  {
    auto b = random_rhs(3, 18);
    std::vector<value_t> x(b.size(), 0.0);
    shared->smooth(a, b, x);
  }
  a = sparse::poisson2d_5pt(31, 31);
  auto b = random_rhs(31, 19);
  std::vector<value_t> x_shared(b.size(), 0.0), x_fresh(b.size(), 0.0);
  shared->smooth(a, b, x_shared);
  make_chebyshev_smoother()->smooth(a, b, x_fresh);
  EXPECT_EQ(x_shared, x_fresh);
}

}  // namespace
}  // namespace dsouth::multigrid
