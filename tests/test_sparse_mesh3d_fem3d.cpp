#include <gtest/gtest.h>

#include <cmath>

#include "reference_csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/fem.hpp"
#include "sparse/mesh3d.hpp"
#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "util/error.hpp"

namespace dsouth::sparse {
namespace {

TEST(TetMesh, UnperturbedBoxCounts) {
  auto mesh = make_perturbed_box_mesh(4, 3, 5, 0.0, 1);
  EXPECT_EQ(mesh.num_vertices(), 60);
  EXPECT_EQ(mesh.num_tets(), 6 * 3 * 2 * 4);
  EXPECT_EQ(mesh.num_interior(), 2 * 1 * 3);
  EXPECT_TRUE(mesh.is_valid());
}

TEST(TetMesh, KuhnSplitFillsTheCellExactly) {
  // The six tets of each cell partition it: total volume equals the box
  // volume (unperturbed).
  auto mesh = make_perturbed_box_mesh(3, 3, 3, 0.0, 1);
  double vol = 0.0;
  for (index_t t = 0; t < mesh.num_tets(); ++t) vol += mesh.signed_volume(t);
  EXPECT_NEAR(vol, 1.0, 1e-12);  // unit cube (longest axis spans [0,1])
}

TEST(TetMesh, PerturbationKeepsPositiveOrientation) {
  auto mesh = make_perturbed_box_mesh(8, 8, 8, 0.15, 42);
  EXPECT_TRUE(mesh.is_valid());
  for (index_t t = 0; t < mesh.num_tets(); ++t) {
    EXPECT_GT(mesh.signed_volume(t), 0.0);
  }
}

TEST(TetMesh, AnisotropicSlabScalesAxes) {
  // Longest axis spans [0,1]; the thin axis spans proportionally less.
  auto mesh = make_perturbed_box_mesh(11, 11, 3, 0.0, 1);
  double max_z = 0.0, max_x = 0.0;
  for (index_t v = 0; v < mesh.num_vertices(); ++v) {
    max_x = std::max(max_x, mesh.vx[static_cast<std::size_t>(v)]);
    max_z = std::max(max_z, mesh.vz[static_cast<std::size_t>(v)]);
  }
  EXPECT_NEAR(max_x, 1.0, 1e-12);
  EXPECT_NEAR(max_z, 0.2, 1e-12);
}

TEST(TetMesh, InvalidArgsThrow) {
  EXPECT_THROW(make_perturbed_box_mesh(1, 3, 3, 0.0, 1), util::CheckError);
  EXPECT_THROW(make_perturbed_box_mesh(3, 3, 3, 0.4, 1), util::CheckError);
}

TEST(Fem3dElasticity, SpdThreeDofsPerVertex) {
  auto mesh = make_perturbed_box_mesh(5, 5, 5, 0.1, 7);
  DofMap map;
  ElasticityOptions opt;
  opt.poisson_ratio = 0.3;
  auto a = assemble_p1_elasticity_3d(mesh, opt, &map);
  EXPECT_EQ(map.dofs_per_vertex, 3);
  EXPECT_EQ(a.rows(), 3 * mesh.num_interior());
  EXPECT_TRUE(a.is_symmetric(1e-10));
  EXPECT_NO_THROW(DenseCholesky{a});
}

TEST(Fem3dElasticity, RigidTranslationIsInStiffnessKernelPreBc) {
  // Element-level sanity through the assembled operator: applying the
  // operator to a constant displacement field must reproduce only boundary
  // effects. Verify via the residual of the constant field against the
  // matching Dirichlet lift: A·1 equals the (negated) coupling to the
  // eliminated boundary values, so here check instead that row sums of the
  // full stiffness (interior + boundary columns) would vanish — i.e., each
  // interior row sum equals minus its boundary couplings. We assemble on a
  // mesh where one vertex ring is interior and check A·1 ≠ 0 but small
  // relative to diagonal (the constant field is nearly rigid).
  auto mesh = make_perturbed_box_mesh(6, 6, 6, 0.0, 1);
  ElasticityOptions opt;
  opt.poisson_ratio = 0.25;
  auto a = assemble_p1_elasticity_3d(mesh, opt);
  // Stronger, exact property: the full (no-BC) operator annihilates
  // translations. With Dirichlet elimination, (A·1)_i = -Σ_boundary a_ib.
  // For a deep-interior dof (all neighbors interior), the row sum is 0.
  // Center vertex of the 6^3 grid has a fully interior stencil ring only
  // if the mesh is at least 7^3; use 8^3 to be safe.
  auto mesh8 = make_perturbed_box_mesh(8, 8, 8, 0.0, 1);
  DofMap map;
  auto a8 = assemble_p1_elasticity_3d(mesh8, opt, &map);
  // Vertex (3,3,3) is two layers from every boundary.
  const index_t v = (3 * 8 + 3) * 8 + 3;
  const index_t dof = map.vertex_to_dof[static_cast<std::size_t>(v)];
  ASSERT_GE(dof, 0);
  for (int c = 0; c < 3; ++c) {
    value_t row_sum = 0.0;
    for (value_t x : a8.row_vals(dof + c)) row_sum += x;
    EXPECT_NEAR(row_sum, 0.0, 1e-10);
  }
  (void)a;
}

TEST(Fem3dElasticity, ScaledSpectrumExceedsJacobiLimit) {
  auto mesh = make_perturbed_box_mesh(10, 10, 10, 0.15, 11);
  ElasticityOptions opt;
  opt.poisson_ratio = 0.4;
  auto a = assemble_p1_elasticity_3d(mesh, opt);
  auto s = symmetric_unit_diagonal_scale(a);
  EXPECT_GT(lambda_max_estimate(s.a, 300), 2.0);
}

TEST(Fem3dElasticity, JumpContrastChangesEntries) {
  auto mesh = make_perturbed_box_mesh(7, 7, 7, 0.0, 1);
  ElasticityOptions plain;
  plain.poisson_ratio = 0.3;
  ElasticityOptions jump = plain;
  jump.jump_contrast = 100.0;
  jump.jump_blocks = 2;
  auto a = assemble_p1_elasticity_3d(mesh, plain);
  auto b = assemble_p1_elasticity_3d(mesh, jump);
  ASSERT_EQ(a.nnz(), b.nnz());
  bool any_bigger = false;
  for (index_t i = 0; i < a.rows() && !any_bigger; ++i) {
    if (std::abs(b.at(i, i)) > 10.0 * std::abs(a.at(i, i))) any_bigger = true;
  }
  EXPECT_TRUE(any_bigger);
  EXPECT_NO_THROW(DenseCholesky{b});
}

TEST(Fem3dElasticity, NnzPerRowMatchesStructuralMatrices) {
  // The paper's 3-D structural matrices have ~45-80 nnz/row; the tet
  // elasticity proxy should land in that neighborhood (~40+).
  auto mesh = make_perturbed_box_mesh(10, 10, 10, 0.1, 3);
  auto a = assemble_p1_elasticity_3d(mesh);
  const double per_row =
      static_cast<double>(a.nnz()) / static_cast<double>(a.rows());
  EXPECT_GT(per_row, 30.0);
  EXPECT_LT(per_row, 60.0);
}

TEST(Fem3dElasticity, InvalidOptionsThrow) {
  auto mesh = make_perturbed_box_mesh(4, 4, 4, 0.0, 1);
  ElasticityOptions opt;
  opt.poisson_ratio = 0.5;
  EXPECT_THROW(assemble_p1_elasticity_3d(mesh, opt), util::CheckError);
  opt.poisson_ratio = 0.3;
  opt.jump_contrast = -1.0;
  EXPECT_THROW(assemble_p1_elasticity_3d(mesh, opt), util::CheckError);
}

// Reference: the triplet assembly the 3-D assembler replaced, element
// loop for element loop, converted by the stable-sort reference. The
// pattern-first assembler must reproduce it bit for bit.
CsrMatrix reference_elasticity_3d(const TetMesh& mesh,
                                  const ElasticityOptions& opt) {
  std::vector<index_t> dof(static_cast<std::size_t>(mesh.num_vertices()), -1);
  index_t n = 0;
  for (index_t v = 0; v < mesh.num_vertices(); ++v) {
    if (!mesh.on_boundary[static_cast<std::size_t>(v)]) {
      dof[static_cast<std::size_t>(v)] = n;
      n += 3;
    }
  }
  const double nu = opt.poisson_ratio;
  const double lambda_base =
      opt.youngs_modulus * nu / ((1.0 + nu) * (1.0 - 2.0 * nu));
  const double mu_base = opt.youngs_modulus / (2.0 * (1.0 + nu));
  auto element_scale = [&](index_t t) -> double {
    if (opt.jump_contrast == 1.0) return 1.0;
    const auto& tet = mesh.tets[static_cast<std::size_t>(t)];
    double cx = 0, cy = 0, cz = 0;
    for (index_t v : tet) {
      cx += mesh.vx[static_cast<std::size_t>(v)];
      cy += mesh.vy[static_cast<std::size_t>(v)];
      cz += mesh.vz[static_cast<std::size_t>(v)];
    }
    cx /= 4.0;
    cy /= 4.0;
    cz /= 4.0;
    auto block = [&](double c) {
      return std::min(opt.jump_blocks - 1,
                      static_cast<int>(c * opt.jump_blocks));
    };
    return ((block(cx) + block(cy) + block(cz)) % 2 == 0) ? 1.0
                                                          : opt.jump_contrast;
  };
  testref::Triplets coo{n, n, {}, {}, {}};
  for (index_t t = 0; t < mesh.num_tets(); ++t) {
    const auto& tet = mesh.tets[static_cast<std::size_t>(t)];
    const double vol = mesh.signed_volume(t);
    const double m[3][3] = {
        {mesh.vx[tet[1]] - mesh.vx[tet[0]], mesh.vx[tet[2]] - mesh.vx[tet[0]],
         mesh.vx[tet[3]] - mesh.vx[tet[0]]},
        {mesh.vy[tet[1]] - mesh.vy[tet[0]], mesh.vy[tet[2]] - mesh.vy[tet[0]],
         mesh.vy[tet[3]] - mesh.vy[tet[0]]},
        {mesh.vz[tet[1]] - mesh.vz[tet[0]], mesh.vz[tet[2]] - mesh.vz[tet[0]],
         mesh.vz[tet[3]] - mesh.vz[tet[0]]}};
    const double det = 6.0 * vol;
    const double inv[3][3] = {
        {(m[1][1] * m[2][2] - m[1][2] * m[2][1]) / det,
         (m[0][2] * m[2][1] - m[0][1] * m[2][2]) / det,
         (m[0][1] * m[1][2] - m[0][2] * m[1][1]) / det},
        {(m[1][2] * m[2][0] - m[1][0] * m[2][2]) / det,
         (m[0][0] * m[2][2] - m[0][2] * m[2][0]) / det,
         (m[0][2] * m[1][0] - m[0][0] * m[1][2]) / det},
        {(m[1][0] * m[2][1] - m[1][1] * m[2][0]) / det,
         (m[0][1] * m[2][0] - m[0][0] * m[2][1]) / det,
         (m[0][0] * m[1][1] - m[0][1] * m[1][0]) / det}};
    double grad[4][3];
    for (int k = 0; k < 3; ++k) {
      for (int c = 0; c < 3; ++c) grad[k + 1][c] = inv[k][c];
    }
    for (int c = 0; c < 3; ++c) {
      grad[0][c] = -(grad[1][c] + grad[2][c] + grad[3][c]);
    }
    const double es = element_scale(t);
    const double lam = lambda_base * es;
    const double mu = mu_base * es;
    for (int i = 0; i < 4; ++i) {
      const index_t di = dof[static_cast<std::size_t>(tet[i])];
      if (di < 0) continue;
      for (int j = 0; j < 4; ++j) {
        const index_t dj = dof[static_cast<std::size_t>(tet[j])];
        if (dj < 0) continue;
        const double dot = grad[i][0] * grad[j][0] + grad[i][1] * grad[j][1] +
                           grad[i][2] * grad[j][2];
        for (int r = 0; r < 3; ++r) {
          for (int c = 0; c < 3; ++c) {
            coo.add(di + r, dj + c,
                    vol * (lam * grad[i][r] * grad[j][c] +
                           mu * grad[j][r] * grad[i][c] +
                           (r == c ? mu * dot : 0.0)));
          }
        }
      }
    }
  }
  return testref::reference_to_csr(coo);
}

TEST(Fem3dElasticity, MatchesTripletAssemblyBitForBit) {
  ElasticityOptions opt;
  opt.poisson_ratio = 0.42;
  opt.jump_blocks = 2;
  for (double contrast : {1.0, 100.0}) {
    opt.jump_contrast = contrast;
    const auto mesh = make_perturbed_box_mesh(6, 5, 7, 0.15, 11);
    EXPECT_TRUE(testref::bit_identical(assemble_p1_elasticity_3d(mesh, opt),
                                       reference_elasticity_3d(mesh, opt)))
        << "jump_contrast " << contrast;
  }
}

}  // namespace
}  // namespace dsouth::sparse
