#pragma once

/// \file hierarchy.hpp
/// One multigrid hierarchy for both smoothing studies: the geometric 2-D
/// Poisson hierarchy of the paper's §4.1 (Figure 6) and smoothed-aggregation
/// AMG on the unstructured proxies (multigrid/amg.hpp). A hierarchy is a
/// list of levels, each an operator and a transfer to the next coarser
/// level; the last level is solved exactly by a dense Cholesky. Every cycle
/// is V(1,1): one pre-smoothing and one post-smoothing application per
/// level, as in the paper.

#include <memory>
#include <span>
#include <vector>

#include "multigrid/smoother.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/types.hpp"

namespace dsouth::multigrid {

using sparse::index_t;

/// Moves vectors between a level and the next coarser one. The vector sizes
/// are the two levels' operator sizes. Each kind of hierarchy keeps its own
/// arithmetic: the geometric grids apply the full-weighting and bilinear
/// stencils (an assembled bilinear P would sum full weighting's nine terms
/// in another order and move every iterate), AMG an assembled prolongator
/// P and its transpose.
class Transfer {
 public:
  virtual ~Transfer() = default;

  Transfer() = default;
  Transfer(const Transfer&) = delete;
  Transfer& operator=(const Transfer&) = delete;

  /// coarse_b = R · fine_r (overwrites coarse_b).
  virtual void restrict_residual(std::span<const value_t> fine_r,
                                 std::span<value_t> coarse_b) const = 0;
  /// fine_x += P · coarse_x.
  virtual void prolong_add(std::span<const value_t> coarse_x,
                           std::span<value_t> fine_x) const = 0;
};

class Hierarchy {
 public:
  struct Level {
    CsrMatrix a;
    /// Transfer to the next coarser level; null on the last level.
    std::unique_ptr<Transfer> to_coarse;
  };

  /// Levels finest first. Every operator must be square, and every level
  /// but the last needs a transfer.
  explicit Hierarchy(std::vector<Level> levels);

  int num_levels() const { return static_cast<int>(levels_.size()); }
  const CsrMatrix& level_matrix(int l) const;

  /// Total stored nonzeros across levels / nonzeros of the finest level
  /// (the classical operator complexity).
  double operator_complexity() const;

  /// One V(1,1) cycle: improve x for A₀ x = b. The same smoother object
  /// pre- and post-smooths on every level.
  void vcycle(std::span<const value_t> b, std::span<value_t> x,
              Smoother& smoother);

  /// Run `cycles` (>= 1) V-cycles from x and return ‖r‖₂ / ‖r⁰‖₂ (the
  /// Figure 6 quantity).
  double solve_relative_residual(std::span<const value_t> b,
                                 std::span<value_t> x, Smoother& smoother,
                                 int cycles);

 private:
  /// Work vectors of one level, reused across cycles: the residual, and the
  /// next level's right-hand side and correction.
  struct Work {
    std::vector<value_t> r, bc, xc;
  };
  void cycle_level(std::size_t l, std::span<const value_t> b,
                   std::span<value_t> x, Smoother& smoother);

  std::vector<Level> levels_;
  std::vector<Work> work_;
  std::unique_ptr<sparse::DenseCholesky> coarse_solver_;
};

/// The paper's geometric hierarchy: the 5-point Poisson operator on n×n
/// interior grids, n = n_finest, (n − 1)/2, … down to 3×3 (n_finest must
/// be of the form 2^k − 1), with full-weighting restriction and bilinear
/// prolongation between grids.
Hierarchy geometric_poisson_hierarchy(index_t n_finest);

}  // namespace dsouth::multigrid
