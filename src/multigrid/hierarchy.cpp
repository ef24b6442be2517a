#include "multigrid/hierarchy.hpp"

#include <utility>

#include "multigrid/transfer.hpp"
#include "sparse/stencils.hpp"
#include "sparse/vec.hpp"
#include "util/error.hpp"

namespace dsouth::multigrid {

namespace {

/// Full weighting and bilinear interpolation between an n×n grid and the
/// (n − 1)/2 × (n − 1)/2 grid below it.
class GridTransfer final : public Transfer {
 public:
  explicit GridTransfer(index_t n_fine) : n_fine_(n_fine) {}

  void restrict_residual(std::span<const value_t> fine_r,
                         std::span<value_t> coarse_b) const override {
    restrict_full_weighting(n_fine_, fine_r, coarse_b);
    // The level operators are the unscaled (4, -1) stencils, i.e. h²·(-Δ):
    // moving the residual equation to the coarse grid (h_c = 2·h_f) needs a
    // factor (h_c/h_f)² = 4 on the right-hand side.
    sparse::scale(4.0, coarse_b);
  }

  void prolong_add(std::span<const value_t> coarse_x,
                   std::span<value_t> fine_x) const override {
    prolong_bilinear_add(n_fine_, coarse_x, fine_x);
  }

 private:
  index_t n_fine_;
};

}  // namespace

Hierarchy::Hierarchy(std::vector<Level> levels) : levels_(std::move(levels)) {
  DSOUTH_CHECK_MSG(!levels_.empty(), "a hierarchy needs at least one level");
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const CsrMatrix& a = levels_[l].a;
    DSOUTH_CHECK_MSG(a.rows() == a.cols(),
                     "level " << l << " operator is " << a.rows() << "x"
                              << a.cols() << ", not square");
    const bool last = l + 1 == levels_.size();
    DSOUTH_CHECK_MSG(last || levels_[l].to_coarse != nullptr,
                     "level " << l << " has no transfer to level " << l + 1);
    Work w;
    w.r.resize(static_cast<std::size_t>(a.rows()));
    if (!last) {
      const auto nc = static_cast<std::size_t>(levels_[l + 1].a.rows());
      w.bc.resize(nc);
      w.xc.resize(nc);
    }
    work_.push_back(std::move(w));
  }
  coarse_solver_ = std::make_unique<sparse::DenseCholesky>(levels_.back().a);
}

const CsrMatrix& Hierarchy::level_matrix(int l) const {
  DSOUTH_CHECK(l >= 0 && l < num_levels());
  return levels_[static_cast<std::size_t>(l)].a;
}

double Hierarchy::operator_complexity() const {
  double total = 0.0;
  for (const auto& lvl : levels_) total += static_cast<double>(lvl.a.nnz());
  return total / static_cast<double>(levels_.front().a.nnz());
}

void Hierarchy::cycle_level(std::size_t l, std::span<const value_t> b,
                            std::span<value_t> x, Smoother& smoother) {
  if (l + 1 == levels_.size()) {
    coarse_solver_->solve(b, x);  // exact solve on the last level
    return;
  }
  const Level& lvl = levels_[l];
  Work& w = work_[l];
  smoother.smooth(lvl.a, b, x);  // pre-smooth
  lvl.a.residual(b, x, w.r);     // r = b - A x
  lvl.to_coarse->restrict_residual(w.r, w.bc);
  sparse::fill(w.xc, 0.0);
  cycle_level(l + 1, w.bc, w.xc, smoother);
  lvl.to_coarse->prolong_add(w.xc, x);  // coarse correction
  smoother.smooth(lvl.a, b, x);         // post-smooth
}

void Hierarchy::vcycle(std::span<const value_t> b, std::span<value_t> x,
                       Smoother& smoother) {
  DSOUTH_CHECK(b.size() ==
               static_cast<std::size_t>(levels_.front().a.rows()));
  DSOUTH_CHECK(x.size() == b.size());
  cycle_level(0, b, x, smoother);
}

double Hierarchy::solve_relative_residual(std::span<const value_t> b,
                                          std::span<value_t> x,
                                          Smoother& smoother, int cycles) {
  DSOUTH_CHECK_MSG(cycles >= 1, "cycles must be >= 1, got " << cycles);
  const CsrMatrix& a = levels_.front().a;
  std::vector<value_t>& r = work_.front().r;
  a.residual(b, x, r);
  const value_t r0 = sparse::norm2(r);
  DSOUTH_CHECK_MSG(r0 > 0.0, "initial residual is zero");
  for (int c = 0; c < cycles; ++c) vcycle(b, x, smoother);
  a.residual(b, x, r);
  return sparse::norm2(r) / r0;
}

Hierarchy geometric_poisson_hierarchy(index_t n_finest) {
  DSOUTH_CHECK_MSG(n_finest >= 3 && n_finest % 2 == 1,
                   "finest grid dimension must be odd >= 3, got " << n_finest);
  std::vector<Hierarchy::Level> levels;
  for (index_t n = n_finest;; n = coarse_dim(n)) {
    // Dimensions of the form 2^k - 1 reach exactly 3; others would skip it.
    DSOUTH_CHECK_MSG(n >= 3, "grid dimension sequence does not reach 3");
    levels.push_back({sparse::poisson2d_5pt(n, n),
                      n > 3 ? std::make_unique<GridTransfer>(n) : nullptr});
    if (n == 3) break;
  }
  return Hierarchy(std::move(levels));
}

}  // namespace dsouth::multigrid
