#pragma once

/// \file fem.hpp
/// P1 (linear triangle) finite element assembly: Poisson and plane-strain
/// linear elasticity, with Dirichlet elimination on the mesh boundary.
///
/// The Poisson assembler reproduces the paper's small FEM test problem
/// (Figures 2 and 5). The elasticity assembler produces the SPD,
/// non-M-matrix systems used by the proxy suite: unlike diffusion operators,
/// elasticity stiffness matrices have positive off-diagonal couplings, so
/// point/small-block Jacobi can diverge on them — which is exactly the
/// Block Jacobi failure mode the paper's evaluation exhibits.
///
/// All three assemblers build the CSR pattern first and then add element
/// contributions in place, with no triplet buffer. Cost: O(element
/// contributions + nnz), plus a sort of each interior vertex's short
/// neighbor list and one binary search per element vertex pair. Each entry
/// sums its element contributions from 0.0 in element order (the insertion
/// order of the element loop), so the result is bit-identical to
/// converting the element-ordered triplets with CooBuilder::to_csr.

#include "sparse/csr.hpp"
#include "sparse/mesh.hpp"
#include "sparse/mesh3d.hpp"
#include "sparse/types.hpp"

namespace dsouth::sparse {

/// Map from mesh vertices to unknown indices after Dirichlet elimination.
struct DofMap {
  /// vertex -> unknown index, or -1 for eliminated (boundary) vertices.
  /// For vector problems this maps vertex -> first dof of the vertex.
  std::vector<index_t> vertex_to_dof;
  index_t num_dofs = 0;
  int dofs_per_vertex = 1;
};

/// Assemble the P1 stiffness matrix for -∇·(∇u) on the mesh with
/// homogeneous Dirichlet boundary (boundary vertices eliminated).
/// The result has one unknown per interior vertex, is symmetric positive
/// definite, and has only non-positive off-diagonal entries (an M-matrix)
/// on meshes without obtuse perturbations.
CsrMatrix assemble_p1_poisson(const TriMesh& mesh, DofMap* dof_map = nullptr);

/// Material parameters for plane-strain linear elasticity.
struct ElasticityOptions {
  double youngs_modulus = 1.0;
  /// Poisson ratio in [0, 0.5). Larger values (0.4+) strengthen the positive
  /// off-diagonal couplings and widen the spectrum (see file comment).
  double poisson_ratio = 0.4;
  /// Per-element Young's modulus contrast: elements whose centroid falls in
  /// the "high" cells of a jump_blocks × jump_blocks checkerboard use
  /// E·jump_contrast. 1.0 = homogeneous material. Mimics the
  /// composite/layered structures of the paper's reservoir and bone
  /// matrices while staying SPD for any contrast.
  double jump_contrast = 1.0;
  int jump_blocks = 4;
};

/// Assemble the P1 plane-strain elasticity stiffness matrix (2 dofs per
/// vertex, both clamped on the boundary). SPD for poisson_ratio < 0.5.
CsrMatrix assemble_p1_elasticity(const TriMesh& mesh,
                                 const ElasticityOptions& opt = {},
                                 DofMap* dof_map = nullptr);

/// Assemble the P1 3-D isotropic linear elasticity stiffness matrix on a
/// tetrahedral mesh (3 dofs per vertex, all clamped on the boundary).
/// Per-vertex-pair 3×3 block: V·(λ ∇λ_i ∇λ_jᵀ + μ ∇λ_j ∇λ_iᵀ +
/// μ (∇λ_i·∇λ_j) I), with Lamé parameters from E and ν. SPD for ν < 0.5.
/// The jump_contrast field uses a 3-D checkerboard over element centroids.
CsrMatrix assemble_p1_elasticity_3d(const TetMesh& mesh,
                                    const ElasticityOptions& opt = {},
                                    DofMap* dof_map = nullptr);

}  // namespace dsouth::sparse
