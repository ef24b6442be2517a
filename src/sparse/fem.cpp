#include "sparse/fem.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>

#include "util/error.hpp"

namespace dsouth::sparse {

namespace {

template <typename Mesh>
DofMap make_dof_map(const Mesh& mesh, int dofs_per_vertex) {
  DofMap map;
  map.dofs_per_vertex = dofs_per_vertex;
  map.vertex_to_dof.assign(static_cast<std::size_t>(mesh.num_vertices()), -1);
  index_t next = 0;
  for (index_t v = 0; v < mesh.num_vertices(); ++v) {
    if (!mesh.on_boundary[static_cast<std::size_t>(v)]) {
      map.vertex_to_dof[static_cast<std::size_t>(v)] = next;
      next += dofs_per_vertex;
    }
  }
  map.num_dofs = next;
  return map;
}

/// Pattern-first P1 assembly, shared by the three assemblers. The
/// constructor builds the CSR pattern from the elements alone: every
/// interior vertex lists the interior vertices it shares an element with
/// (itself included), sorted and deduplicated, and each listed vertex pair
/// expands into a dofs_per_vertex-square block of entries. DofMap numbers
/// interior vertices in ascending order, so every row's columns ascend.
/// Values start at 0.0 and the element loop adds into them in place, so
/// each entry sums its contributions in element order: the order in which
/// a stable (row, col) sort of element-ordered triplets sums them, which
/// keeps the matrix bit-identical to triplet assembly.
class P1Csr {
 public:
  template <std::size_t K>
  P1Csr(const std::vector<std::array<index_t, K>>& elements,
        const DofMap& map);

  /// The vertex-pair block whose first dofs are di (row) and dj (column);
  /// entry (r, c) adds to dof pair (di + r, dj + c).
  class Block {
   public:
    Block(value_t* first, index_t stride) : first_(first), stride_(stride) {}
    value_t& operator()(int r, int c) const { return first_[r * stride_ + c]; }

   private:
    value_t* first_;
    index_t stride_;  // row length: entry (r + 1, c) sits a row further
  };

  /// Looks the block up once; the two vertices must share an element.
  Block block(index_t di, index_t dj);

  CsrMatrix finish() && {
    return CsrMatrix(n_, n_, std::move(row_ptr_), std::move(col_idx_),
                     std::move(values_));
  }

 private:
  index_t n_;
  std::vector<csr_index_t> row_ptr_, col_idx_;
  std::vector<value_t> values_;
};

template <std::size_t K>
P1Csr::P1Csr(const std::vector<std::array<index_t, K>>& elements,
             const DofMap& map)
    : n_(map.num_dofs) {
  const index_t dpv = map.dofs_per_vertex;
  const auto nv = static_cast<std::size_t>(n_ / dpv);
  // An element's interior vertices, as indices 0..nv-1 in dof order.
  std::array<index_t, K> iv{};
  auto interior = [&](const std::array<index_t, K>& e) {
    std::size_t count = 0;
    for (index_t v : e) {
      const index_t d = map.vertex_to_dof[static_cast<std::size_t>(v)];
      if (d >= 0) iv[count++] = d / dpv;
    }
    return count;
  };

  // Vertex lists, with repeats: count, then fill.
  std::vector<std::size_t> vptr(nv + 1, 0);
  for (const auto& e : elements) {
    const std::size_t count = interior(e);
    for (std::size_t a = 0; a < count; ++a) {
      vptr[static_cast<std::size_t>(iv[a]) + 1] += count;
    }
  }
  std::partial_sum(vptr.begin(), vptr.end(), vptr.begin());
  std::vector<index_t> vadj(vptr.back());
  std::vector<std::size_t> vend(vptr.begin(), vptr.end() - 1);
  for (const auto& e : elements) {
    const std::size_t count = interior(e);
    for (std::size_t a = 0; a < count; ++a) {
      for (std::size_t b = 0; b < count; ++b) {
        vadj[vend[static_cast<std::size_t>(iv[a])]++] = iv[b];
      }
    }
  }
  // Sort and dedupe each list in place; vend moves to its new end.
  for (std::size_t u = 0; u < nv; ++u) {
    index_t* first = vadj.data() + vptr[u];
    index_t* last = vadj.data() + vend[u];
    std::sort(first, last);
    vend[u] = static_cast<std::size_t>(std::unique(first, last) - vadj.data());
  }

  // Expand: vertex u's list becomes its dpv rows, each holding the dpv
  // columns of every listed vertex.
  std::size_t pairs = 0;
  for (std::size_t u = 0; u < nv; ++u) pairs += vend[u] - vptr[u];
  const std::size_t entries = pairs * static_cast<std::size_t>(dpv * dpv);
  // Columns lie below n_, and offsets reach the entry count.
  DSOUTH_CHECK_MSG(n_ <= kMaxCsrIndex && std::in_range<csr_index_t>(entries),
                   n_ << " dofs with " << entries
                      << " entries exceed the 32-bit CSR index limit");
  row_ptr_.reserve(static_cast<std::size_t>(n_) + 1);
  col_idx_.reserve(entries);
  row_ptr_.push_back(0);
  for (std::size_t u = 0; u < nv; ++u) {
    for (index_t r = 0; r < dpv; ++r) {
      for (std::size_t j = vptr[u]; j < vend[u]; ++j) {
        for (index_t c = 0; c < dpv; ++c) {
          col_idx_.push_back(static_cast<csr_index_t>(vadj[j] * dpv + c));
        }
      }
      row_ptr_.push_back(static_cast<csr_index_t>(col_idx_.size()));
    }
  }
  values_.assign(col_idx_.size(), 0.0);
}

P1Csr::Block P1Csr::block(index_t di, index_t dj) {
  const auto i = static_cast<std::size_t>(di);
  const csr_index_t* row = col_idx_.data() + row_ptr_[i];
  const csr_index_t* end = col_idx_.data() + row_ptr_[i + 1];
  const csr_index_t* at = std::lower_bound(row, end, dj);
  DSOUTH_ASSERT(at != end && *at == dj);
  return {values_.data() + (at - col_idx_.data()), end - row};
}

/// P1 shape-function gradient coefficients on a triangle:
/// grad(phi_i) = (b_i, c_i) / (2 * area).
struct TriGeom {
  std::array<double, 3> b, c;
  double area;
};

TriGeom tri_geometry(const TriMesh& mesh, index_t t) {
  const auto& tri = mesh.tris[static_cast<std::size_t>(t)];
  const double x0 = mesh.vx[tri[0]], y0 = mesh.vy[tri[0]];
  const double x1 = mesh.vx[tri[1]], y1 = mesh.vy[tri[1]];
  const double x2 = mesh.vx[tri[2]], y2 = mesh.vy[tri[2]];
  TriGeom g;
  g.b = {y1 - y2, y2 - y0, y0 - y1};
  g.c = {x2 - x1, x0 - x2, x1 - x0};
  g.area = mesh.signed_area(t);
  DSOUTH_CHECK_MSG(g.area > 0.0, "degenerate or inverted triangle " << t);
  return g;
}

}  // namespace

CsrMatrix assemble_p1_poisson(const TriMesh& mesh, DofMap* dof_map) {
  DSOUTH_CHECK(mesh.is_valid());
  DofMap map = make_dof_map(mesh, 1);
  DSOUTH_CHECK_MSG(map.num_dofs > 0, "mesh has no interior vertices");
  P1Csr csr(mesh.tris, map);
  for (index_t t = 0; t < mesh.num_triangles(); ++t) {
    const TriGeom g = tri_geometry(mesh, t);
    const auto& tri = mesh.tris[static_cast<std::size_t>(t)];
    const double inv4a = 1.0 / (4.0 * g.area);
    for (int i = 0; i < 3; ++i) {
      const index_t di = map.vertex_to_dof[static_cast<std::size_t>(tri[i])];
      if (di < 0) continue;
      for (int j = 0; j < 3; ++j) {
        const index_t dj =
            map.vertex_to_dof[static_cast<std::size_t>(tri[j])];
        if (dj < 0) continue;
        const double k = (g.b[i] * g.b[j] + g.c[i] * g.c[j]) * inv4a;
        csr.block(di, dj)(0, 0) += k;
      }
    }
  }
  if (dof_map) *dof_map = std::move(map);
  return std::move(csr).finish();
}

CsrMatrix assemble_p1_elasticity(const TriMesh& mesh,
                                 const ElasticityOptions& opt,
                                 DofMap* dof_map) {
  DSOUTH_CHECK(mesh.is_valid());
  DSOUTH_CHECK(opt.poisson_ratio >= 0.0 && opt.poisson_ratio < 0.5);
  DSOUTH_CHECK(opt.youngs_modulus > 0.0);
  DSOUTH_CHECK(opt.jump_contrast > 0.0 && opt.jump_blocks > 0);
  DofMap map = make_dof_map(mesh, 2);
  DSOUTH_CHECK_MSG(map.num_dofs > 0, "mesh has no interior vertices");
  // Plane-strain constitutive matrix:
  //   D = E / ((1+nu)(1-2nu)) * [ 1-nu   nu     0        ]
  //                             [ nu     1-nu   0        ]
  //                             [ 0      0      (1-2nu)/2 ]
  const double nu = opt.poisson_ratio;
  const double scale =
      opt.youngs_modulus / ((1.0 + nu) * (1.0 - 2.0 * nu));
  const double d00_base = scale * (1.0 - nu);
  const double d01_base = scale * nu;
  const double d22_base = scale * (1.0 - 2.0 * nu) / 2.0;
  // Checkerboard modulus field over the unit square (E scales D linearly).
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

  P1Csr csr(mesh.tris, map);
  for (index_t t = 0; t < mesh.num_triangles(); ++t) {
    const TriGeom g = tri_geometry(mesh, t);
    const double es = element_scale(t);
    const double d00 = d00_base * es;
    const double d01 = d01_base * es;
    const double d22 = d22_base * es;
    const auto& tri = mesh.tris[static_cast<std::size_t>(t)];
    const double inv2a = 1.0 / (2.0 * g.area);
    // Strain-displacement rows for vertex i (B is 3x6):
    //   B(:, 2i)   = [ b_i, 0,   c_i ]ᵀ / 2A     (u_x dof)
    //   B(:, 2i+1) = [ 0,   c_i, b_i ]ᵀ / 2A     (u_y dof)
    // Element stiffness K = area * Bᵀ D B, assembled per 2x2 vertex block.
    for (int i = 0; i < 3; ++i) {
      const index_t di = map.vertex_to_dof[static_cast<std::size_t>(tri[i])];
      if (di < 0) continue;
      const double bi = g.b[i] * inv2a, ci = g.c[i] * inv2a;
      for (int j = 0; j < 3; ++j) {
        const index_t dj =
            map.vertex_to_dof[static_cast<std::size_t>(tri[j])];
        if (dj < 0) continue;
        const double bj = g.b[j] * inv2a, cj = g.c[j] * inv2a;
        // K_block = area * [ bi*d00*bj + ci*d22*cj,  bi*d01*cj + ci*d22*bj ]
        //                  [ ci*d01*bj + bi*d22*cj,  ci*d00*cj + bi*d22*bj ]
        const double kxx = g.area * (bi * d00 * bj + ci * d22 * cj);
        const double kxy = g.area * (bi * d01 * cj + ci * d22 * bj);
        const double kyx = g.area * (ci * d01 * bj + bi * d22 * cj);
        const double kyy = g.area * (ci * d00 * cj + bi * d22 * bj);
        const P1Csr::Block blk = csr.block(di, dj);
        blk(0, 0) += kxx;
        blk(0, 1) += kxy;
        blk(1, 0) += kyx;
        blk(1, 1) += kyy;
      }
    }
  }
  if (dof_map) *dof_map = std::move(map);
  return std::move(csr).finish();
}

CsrMatrix assemble_p1_elasticity_3d(const TetMesh& mesh,
                                    const ElasticityOptions& opt,
                                    DofMap* dof_map) {
  DSOUTH_CHECK(mesh.is_valid());
  DSOUTH_CHECK(opt.poisson_ratio >= 0.0 && opt.poisson_ratio < 0.5);
  DSOUTH_CHECK(opt.youngs_modulus > 0.0);
  DSOUTH_CHECK(opt.jump_contrast > 0.0 && opt.jump_blocks > 0);
  DofMap map = make_dof_map(mesh, 3);
  DSOUTH_CHECK_MSG(map.num_dofs > 0, "mesh has no interior vertices");

  const double nu = opt.poisson_ratio;
  const double lambda_base = opt.youngs_modulus * nu /
                             ((1.0 + nu) * (1.0 - 2.0 * nu));
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
    return ((block(cx) + block(cy) + block(cz)) % 2 == 0)
               ? 1.0
               : opt.jump_contrast;
  };

  P1Csr csr(mesh.tets, map);
  for (index_t t = 0; t < mesh.num_tets(); ++t) {
    const auto& tet = mesh.tets[static_cast<std::size_t>(t)];
    const double vol = mesh.signed_volume(t);
    DSOUTH_CHECK_MSG(vol > 0.0, "degenerate or inverted tet " << t);
    // Barycentric gradients: rows of the inverse of the edge matrix
    // M = [p1-p0 | p2-p0 | p3-p0] give grad(lambda_1..3); grad(lambda_0)
    // closes the partition of unity.
    const double m[3][3] = {
        {mesh.vx[tet[1]] - mesh.vx[tet[0]], mesh.vx[tet[2]] - mesh.vx[tet[0]],
         mesh.vx[tet[3]] - mesh.vx[tet[0]]},
        {mesh.vy[tet[1]] - mesh.vy[tet[0]], mesh.vy[tet[2]] - mesh.vy[tet[0]],
         mesh.vy[tet[3]] - mesh.vy[tet[0]]},
        {mesh.vz[tet[1]] - mesh.vz[tet[0]], mesh.vz[tet[2]] - mesh.vz[tet[0]],
         mesh.vz[tet[3]] - mesh.vz[tet[0]]}};
    const double det = 6.0 * vol;  // det(M)
    // inv(M) via adjugate; grad(lambda_k) = row k-1 of inv(M).
    double grad[4][3];
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
    for (int k = 0; k < 3; ++k) {
      grad[k + 1][0] = inv[k][0];
      grad[k + 1][1] = inv[k][1];
      grad[k + 1][2] = inv[k][2];
    }
    for (int c = 0; c < 3; ++c) {
      grad[0][c] = -(grad[1][c] + grad[2][c] + grad[3][c]);
    }

    const double es = element_scale(t);
    const double lam = lambda_base * es;
    const double mu = mu_base * es;
    for (int i = 0; i < 4; ++i) {
      const index_t di = map.vertex_to_dof[static_cast<std::size_t>(tet[i])];
      if (di < 0) continue;
      for (int j = 0; j < 4; ++j) {
        const index_t dj =
            map.vertex_to_dof[static_cast<std::size_t>(tet[j])];
        if (dj < 0) continue;
        const double dot = grad[i][0] * grad[j][0] +
                           grad[i][1] * grad[j][1] +
                           grad[i][2] * grad[j][2];
        const P1Csr::Block blk = csr.block(di, dj);
        for (int r = 0; r < 3; ++r) {
          for (int c = 0; c < 3; ++c) {
            const double k_rc =
                vol * (lam * grad[i][r] * grad[j][c] +
                       mu * grad[j][r] * grad[i][c] +
                       (r == c ? mu * dot : 0.0));
            blk(r, c) += k_rc;
          }
        }
      }
    }
  }
  if (dof_map) *dof_map = std::move(map);
  return std::move(csr).finish();
}

}  // namespace dsouth::sparse
