#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "reference_csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/fem.hpp"
#include "sparse/mesh.hpp"
#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "util/error.hpp"

namespace dsouth::sparse {
namespace {

TEST(TriMesh, UnperturbedGridCounts) {
  auto mesh = make_perturbed_grid_mesh(5, 4, 0.0, 1);
  EXPECT_EQ(mesh.num_vertices(), 20);
  EXPECT_EQ(mesh.num_triangles(), 2 * 4 * 3);
  EXPECT_EQ(mesh.num_interior(), 3 * 2);
  EXPECT_TRUE(mesh.is_valid());
}

TEST(TriMesh, PerturbationKeepsValidity) {
  auto mesh = make_perturbed_grid_mesh(12, 12, 0.25, 42);
  EXPECT_TRUE(mesh.is_valid());
  // Boundary vertices stay on the unit square boundary.
  for (index_t v = 0; v < mesh.num_vertices(); ++v) {
    if (mesh.on_boundary[static_cast<std::size_t>(v)]) {
      const double x = mesh.vx[static_cast<std::size_t>(v)];
      const double y = mesh.vy[static_cast<std::size_t>(v)];
      EXPECT_TRUE(x == 0.0 || x == 1.0 || y == 0.0 || y == 1.0);
    }
  }
}

TEST(TriMesh, DeterministicForSeed) {
  auto a = make_perturbed_grid_mesh(8, 8, 0.2, 5);
  auto b = make_perturbed_grid_mesh(8, 8, 0.2, 5);
  for (index_t v = 0; v < a.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(a.vx[static_cast<std::size_t>(v)],
                     b.vx[static_cast<std::size_t>(v)]);
  }
}

TEST(TriMesh, InvalidArgsThrow) {
  EXPECT_THROW(make_perturbed_grid_mesh(1, 5, 0.0, 1), util::CheckError);
  EXPECT_THROW(make_perturbed_grid_mesh(5, 5, 0.5, 1), util::CheckError);
}

TEST(FemPoisson, UnperturbedMatchesFiveMinusOneStencilScale) {
  // On a uniform right-triangle mesh, the P1 stiffness matrix for the unit
  // Laplacian is exactly the 5-point stencil (values 4 / -1) regardless of
  // h — a classical identity worth pinning down.
  auto mesh = make_perturbed_grid_mesh(6, 6, 0.0, 1);
  DofMap map;
  auto a = assemble_p1_poisson(mesh, &map);
  EXPECT_EQ(a.rows(), 16);
  EXPECT_TRUE(a.is_symmetric(1e-12));
  // Center unknowns: diagonal 4, orthogonal neighbors -1.
  // Interior vertex (2,2) -> dof index 5 in a 4x4 interior grid.
  EXPECT_NEAR(a.at(5, 5), 4.0, 1e-12);
  EXPECT_NEAR(a.at(5, 4), -1.0, 1e-12);
  EXPECT_NEAR(a.at(5, 6), -1.0, 1e-12);
  EXPECT_NEAR(a.at(5, 1), -1.0, 1e-12);
  EXPECT_NEAR(a.at(5, 9), -1.0, 1e-12);
}

TEST(FemPoisson, PerturbedIsSpd) {
  auto mesh = make_perturbed_grid_mesh(8, 7, 0.25, 77);
  auto a = assemble_p1_poisson(mesh);
  EXPECT_TRUE(a.is_symmetric(1e-12));
  EXPECT_NO_THROW(DenseCholesky{a});
}

TEST(FemPoisson, DofMapSkipsBoundary) {
  auto mesh = make_perturbed_grid_mesh(5, 5, 0.1, 3);
  DofMap map;
  auto a = assemble_p1_poisson(mesh, &map);
  EXPECT_EQ(map.num_dofs, a.rows());
  EXPECT_EQ(map.dofs_per_vertex, 1);
  index_t mapped = 0;
  for (index_t v = 0; v < mesh.num_vertices(); ++v) {
    const auto uv = static_cast<std::size_t>(v);
    if (mesh.on_boundary[uv]) {
      EXPECT_EQ(map.vertex_to_dof[uv], -1);
    } else {
      EXPECT_GE(map.vertex_to_dof[uv], 0);
      ++mapped;
    }
  }
  EXPECT_EQ(mapped, map.num_dofs);
}

TEST(FemElasticity, SpdAndTwoDofsPerVertex) {
  auto mesh = make_perturbed_grid_mesh(7, 7, 0.2, 11);
  DofMap map;
  ElasticityOptions opt;
  opt.poisson_ratio = 0.4;
  auto a = assemble_p1_elasticity(mesh, opt, &map);
  EXPECT_EQ(map.dofs_per_vertex, 2);
  EXPECT_EQ(a.rows(), 2 * mesh.num_interior());
  EXPECT_TRUE(a.is_symmetric(1e-11));
  EXPECT_NO_THROW(DenseCholesky{a});
}

TEST(FemElasticity, HasPositiveOffDiagonals) {
  // The property that makes elasticity a non-M-matrix (and small-block
  // Jacobi divergent, per DESIGN.md §5).
  auto mesh = make_perturbed_grid_mesh(7, 7, 0.2, 11);
  auto a = assemble_p1_elasticity(mesh);
  bool found_positive_offdiag = false;
  for (index_t i = 0; i < a.rows() && !found_positive_offdiag; ++i) {
    auto cols = a.row_cols(i);
    auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] != i && vals[k] > 1e-12) found_positive_offdiag = true;
    }
  }
  EXPECT_TRUE(found_positive_offdiag);
}

TEST(FemElasticity, UnitScaledSpectrumExceedsJacobiLimit) {
  // After unit-diagonal scaling, λ_max ≥ 2 means point Jacobi diverges —
  // the Block Jacobi failure mode the paper's evaluation shows. High
  // Poisson ratio pushes the spectrum past the limit.
  auto mesh = make_perturbed_grid_mesh(17, 17, 0.2, 13);
  ElasticityOptions opt;
  opt.poisson_ratio = 0.45;
  auto a = assemble_p1_elasticity(mesh, opt);
  auto s = symmetric_unit_diagonal_scale(a);
  EXPECT_GT(lambda_max_estimate(s.a, 300), 2.0);
}

TEST(FemElasticity, InvalidPoissonRatioThrows) {
  auto mesh = make_perturbed_grid_mesh(4, 4, 0.0, 1);
  ElasticityOptions opt;
  opt.poisson_ratio = 0.5;
  EXPECT_THROW(assemble_p1_elasticity(mesh, opt), util::CheckError);
}

TEST(FemPoisson, SolvesManufacturedProblem) {
  // Manufactured solution u = x(1-x)y(1-y): f = -Δu = 2[y(1-y) + x(1-x)].
  // The FEM solution with an exact-integration RHS converges O(h²); at
  // this resolution we only require qualitative agreement.
  auto mesh = make_perturbed_grid_mesh(17, 17, 0.0, 1);
  DofMap map;
  auto a = assemble_p1_poisson(mesh, &map);
  const double h = 1.0 / 16.0;
  std::vector<value_t> f(static_cast<std::size_t>(a.rows()));
  std::vector<value_t> exact(static_cast<std::size_t>(a.rows()));
  for (index_t v = 0; v < mesh.num_vertices(); ++v) {
    const auto uv = static_cast<std::size_t>(v);
    const index_t dof = map.vertex_to_dof[uv];
    if (dof < 0) continue;
    const double x = mesh.vx[uv], y = mesh.vy[uv];
    // Lumped load: f_i ≈ f(x_i) * h².
    f[static_cast<std::size_t>(dof)] =
        2.0 * (y * (1 - y) + x * (1 - x)) * h * h;
    exact[static_cast<std::size_t>(dof)] = x * (1 - x) * y * (1 - y);
  }
  DenseCholesky chol(a);
  std::vector<value_t> u(f.size());
  chol.solve(f, u);
  double err = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    err += (u[i] - exact[i]) * (u[i] - exact[i]);
    norm += exact[i] * exact[i];
  }
  EXPECT_LT(std::sqrt(err / norm), 0.05);
}

// Reference: the triplet assembly these assemblers replaced, element loop
// for element loop, converted by the stable-sort reference. The
// pattern-first assemblers must reproduce it bit for bit.
std::vector<index_t> reference_dofs(const TriMesh& mesh, int per_vertex) {
  std::vector<index_t> dof(static_cast<std::size_t>(mesh.num_vertices()), -1);
  index_t next = 0;
  for (index_t v = 0; v < mesh.num_vertices(); ++v) {
    if (!mesh.on_boundary[static_cast<std::size_t>(v)]) {
      dof[static_cast<std::size_t>(v)] = next;
      next += per_vertex;
    }
  }
  return dof;
}

struct ReferenceGeom {
  std::array<double, 3> b, c;
  double area;
};

ReferenceGeom reference_geometry(const TriMesh& mesh, index_t t) {
  const auto& tri = mesh.tris[static_cast<std::size_t>(t)];
  const double x0 = mesh.vx[tri[0]], y0 = mesh.vy[tri[0]];
  const double x1 = mesh.vx[tri[1]], y1 = mesh.vy[tri[1]];
  const double x2 = mesh.vx[tri[2]], y2 = mesh.vy[tri[2]];
  return {{y1 - y2, y2 - y0, y0 - y1},
          {x2 - x1, x0 - x2, x1 - x0},
          mesh.signed_area(t)};
}

CsrMatrix reference_poisson(const TriMesh& mesh) {
  const auto dof = reference_dofs(mesh, 1);
  const index_t n = mesh.num_interior();
  testref::Triplets coo{n, n, {}, {}, {}};
  for (index_t t = 0; t < mesh.num_triangles(); ++t) {
    const ReferenceGeom g = reference_geometry(mesh, t);
    const auto& tri = mesh.tris[static_cast<std::size_t>(t)];
    const double inv4a = 1.0 / (4.0 * g.area);
    for (int i = 0; i < 3; ++i) {
      const index_t di = dof[static_cast<std::size_t>(tri[i])];
      if (di < 0) continue;
      for (int j = 0; j < 3; ++j) {
        const index_t dj = dof[static_cast<std::size_t>(tri[j])];
        if (dj < 0) continue;
        coo.add(di, dj, (g.b[i] * g.b[j] + g.c[i] * g.c[j]) * inv4a);
      }
    }
  }
  return testref::reference_to_csr(coo);
}

CsrMatrix reference_elasticity(const TriMesh& mesh,
                               const ElasticityOptions& opt) {
  const auto dof = reference_dofs(mesh, 2);
  const index_t n = 2 * mesh.num_interior();
  const double nu = opt.poisson_ratio;
  const double scale = opt.youngs_modulus / ((1.0 + nu) * (1.0 - 2.0 * nu));
  const double d00_base = scale * (1.0 - nu);
  const double d01_base = scale * nu;
  const double d22_base = scale * (1.0 - 2.0 * nu) / 2.0;
  auto element_scale = [&](index_t t) -> double {
    if (opt.jump_contrast == 1.0) return 1.0;
    const auto& tri = mesh.tris[static_cast<std::size_t>(t)];
    const double cx = (mesh.vx[tri[0]] + mesh.vx[tri[1]] + mesh.vx[tri[2]]) / 3.0;
    const double cy = (mesh.vy[tri[0]] + mesh.vy[tri[1]] + mesh.vy[tri[2]]) / 3.0;
    const int bx = std::min(opt.jump_blocks - 1,
                            static_cast<int>(cx * opt.jump_blocks));
    const int by = std::min(opt.jump_blocks - 1,
                            static_cast<int>(cy * opt.jump_blocks));
    return ((bx + by) % 2 == 0) ? 1.0 : opt.jump_contrast;
  };
  testref::Triplets coo{n, n, {}, {}, {}};
  for (index_t t = 0; t < mesh.num_triangles(); ++t) {
    const ReferenceGeom g = reference_geometry(mesh, t);
    const double es = element_scale(t);
    const double d00 = d00_base * es;
    const double d01 = d01_base * es;
    const double d22 = d22_base * es;
    const auto& tri = mesh.tris[static_cast<std::size_t>(t)];
    const double inv2a = 1.0 / (2.0 * g.area);
    for (int i = 0; i < 3; ++i) {
      const index_t di = dof[static_cast<std::size_t>(tri[i])];
      if (di < 0) continue;
      const double bi = g.b[i] * inv2a, ci = g.c[i] * inv2a;
      for (int j = 0; j < 3; ++j) {
        const index_t dj = dof[static_cast<std::size_t>(tri[j])];
        if (dj < 0) continue;
        const double bj = g.b[j] * inv2a, cj = g.c[j] * inv2a;
        coo.add(di, dj, g.area * (bi * d00 * bj + ci * d22 * cj));
        coo.add(di, dj + 1, g.area * (bi * d01 * cj + ci * d22 * bj));
        coo.add(di + 1, dj, g.area * (ci * d01 * bj + bi * d22 * cj));
        coo.add(di + 1, dj + 1, g.area * (ci * d00 * cj + bi * d22 * bj));
      }
    }
  }
  return testref::reference_to_csr(coo);
}

TEST(FemPoisson, MatchesTripletAssemblyBitForBit) {
  for (std::uint64_t seed : {3, 17}) {
    const auto mesh = make_perturbed_grid_mesh(11, 8, 0.25, seed);
    EXPECT_TRUE(testref::bit_identical(assemble_p1_poisson(mesh),
                                       reference_poisson(mesh)))
        << "seed " << seed;
  }
}

TEST(FemElasticity, MatchesTripletAssemblyBitForBit) {
  ElasticityOptions opt;
  opt.poisson_ratio = 0.45;
  for (double contrast : {1.0, 50.0, 1.0e3}) {
    opt.jump_contrast = contrast;
    opt.jump_blocks = 3;
    const auto mesh = make_perturbed_grid_mesh(10, 9, 0.2, 29);
    EXPECT_TRUE(testref::bit_identical(assemble_p1_elasticity(mesh, opt),
                                       reference_elasticity(mesh, opt)))
        << "jump_contrast " << contrast;
  }
}

}  // namespace
}  // namespace dsouth::sparse
