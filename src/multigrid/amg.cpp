#include "multigrid/amg.hpp"

#include <cmath>
#include <utility>

#include "sparse/scaling.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/stencils.hpp"
#include "sparse/vec.hpp"
#include "util/error.hpp"

namespace dsouth::multigrid {

using sparse::CsrMatrix;
using sparse::csr_index_t;
using sparse::kMaxCsrIndex;
using sparse::value_t;

std::vector<index_t> aggregate(const CsrMatrix& a, double strength_threshold,
                               index_t* num_aggregates) {
  DSOUTH_CHECK(a.rows() == a.cols());
  DSOUTH_CHECK(strength_threshold >= 0.0);
  const index_t n = a.rows();
  const auto diag = a.diagonal();
  auto strong = [&](index_t i, index_t j, value_t v) {
    return std::abs(v) >
           strength_threshold *
               std::sqrt(std::abs(diag[static_cast<std::size_t>(i)] *
                                  diag[static_cast<std::size_t>(j)]));
  };

  std::vector<index_t> agg(static_cast<std::size_t>(n), -1);
  index_t count = 0;
  // Pass 1: seed aggregates from rows whose strong neighborhood is fully
  // unaggregated (the classical Vaněk-style greedy pass).
  for (index_t i = 0; i < n; ++i) {
    if (agg[static_cast<std::size_t>(i)] >= 0) continue;
    auto cols = a.row_cols(i);
    auto vals = a.row_vals(i);
    bool free_neighborhood = true;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const index_t j = cols[k];
      if (j != i && strong(i, j, vals[k]) &&
          agg[static_cast<std::size_t>(j)] >= 0) {
        free_neighborhood = false;
        break;
      }
    }
    if (!free_neighborhood) continue;
    const index_t id = count++;
    agg[static_cast<std::size_t>(i)] = id;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const index_t j = cols[k];
      if (j != i && strong(i, j, vals[k])) {
        agg[static_cast<std::size_t>(j)] = id;
      }
    }
  }
  // Pass 2: attach leftovers to a strongly-connected aggregate if any.
  for (index_t i = 0; i < n; ++i) {
    if (agg[static_cast<std::size_t>(i)] >= 0) continue;
    auto cols = a.row_cols(i);
    auto vals = a.row_vals(i);
    value_t best = 0.0;
    index_t best_agg = -1;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const index_t j = cols[k];
      if (j == i || agg[static_cast<std::size_t>(j)] < 0) continue;
      if (strong(i, j, vals[k]) && std::abs(vals[k]) > best) {
        best = std::abs(vals[k]);
        best_agg = agg[static_cast<std::size_t>(j)];
      }
    }
    if (best_agg >= 0) agg[static_cast<std::size_t>(i)] = best_agg;
  }
  // Pass 3: isolated rows (no strong connections at all) become singleton
  // aggregates.
  for (index_t i = 0; i < n; ++i) {
    if (agg[static_cast<std::size_t>(i)] < 0) {
      agg[static_cast<std::size_t>(i)] = count++;
    }
  }
  DSOUTH_CHECK(num_aggregates != nullptr);
  *num_aggregates = count;
  return agg;
}

CsrMatrix aggregation_prolongator(std::span<const index_t> agg,
                                  index_t num_aggregates) {
  // One entry per row: n bounds both the offsets and the entry count.
  DSOUTH_CHECK_MSG(std::in_range<csr_index_t>(agg.size()) &&
                       num_aggregates <= kMaxCsrIndex,
                   "prolongator exceeds the 32-bit CSR index limit");
  const auto n = static_cast<csr_index_t>(agg.size());
  std::vector<csr_index_t> row_ptr(static_cast<std::size_t>(n) + 1);
  std::vector<csr_index_t> col_idx(static_cast<std::size_t>(n));
  std::vector<value_t> values(static_cast<std::size_t>(n), 1.0);
  for (csr_index_t i = 0; i < n; ++i) {
    const index_t a = agg[static_cast<std::size_t>(i)];
    DSOUTH_CHECK(a >= 0 && a < num_aggregates);
    row_ptr[static_cast<std::size_t>(i)] = i;
    col_idx[static_cast<std::size_t>(i)] = static_cast<csr_index_t>(a);
  }
  row_ptr[static_cast<std::size_t>(n)] = n;
  return CsrMatrix(n, num_aggregates, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

AmgHierarchy::AmgHierarchy(CsrMatrix a_fine, const AmgOptions& opt) {
  DSOUTH_CHECK(a_fine.rows() == a_fine.cols());
  DSOUTH_CHECK(opt.coarse_size >= 1 && opt.max_levels >= 1);
  CsrMatrix a = std::move(a_fine);
  for (int l = 0; l < opt.max_levels; ++l) {
    Level lvl;
    lvl.a = std::move(a);
    lvl.r.resize(static_cast<std::size_t>(lvl.a.rows()));
    const bool coarse_enough = lvl.a.rows() <= opt.coarse_size;
    if (!coarse_enough && l + 1 < opt.max_levels) {
      index_t num_agg = 0;
      auto agg = aggregate(lvl.a, opt.strength_threshold, &num_agg);
      const double factor = static_cast<double>(lvl.a.rows()) /
                            static_cast<double>(num_agg);
      if (factor >= opt.min_coarsening_factor) {
        CsrMatrix p = aggregation_prolongator(agg, num_agg);
        if (opt.smoothed_prolongation) {
          // P <- (I − ω D⁻¹A) P_tent. λ_max(D⁻¹A) equals λ_max of the
          // symmetrically scaled operator (similarity).
          auto scaled = sparse::symmetric_unit_diagonal_scale(lvl.a);
          const double lmax =
              sparse::lambda_max_estimate(scaled.a, 30, 0xA3A1ULL);
          const double omega = (4.0 / 3.0) / lmax;
          // S = I − ω D⁻¹ A, assembled by rescaling A's rows.
          CsrMatrix s = lvl.a;
          {
            const auto diag = lvl.a.diagonal();
            auto vals = s.mutable_values();
            auto rp = s.row_ptr();
            auto ci = s.col_idx();
            for (index_t i = 0; i < s.rows(); ++i) {
              const double scale_i =
                  -omega / diag[static_cast<std::size_t>(i)];
              for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
                vals[k] *= scale_i;
                if (ci[k] == i) vals[k] += 1.0;
              }
            }
          }
          p = sparse::spgemm(s, p);
        }
        CsrMatrix a_coarse = sparse::galerkin_product(lvl.a, p);
        lvl.bc.resize(static_cast<std::size_t>(num_agg));
        lvl.xc.resize(static_cast<std::size_t>(num_agg));
        // The prolongator hangs off the *coarser* level in this layout:
        // store it with the fine level for a simpler recursion.
        lvl.p = std::move(p);
        levels_.push_back(std::move(lvl));
        a = std::move(a_coarse);
        continue;
      }
    }
    levels_.push_back(std::move(lvl));
    break;
  }
  coarse_solver_ =
      std::make_unique<sparse::DenseCholesky>(levels_.back().a);
}

const CsrMatrix& AmgHierarchy::level_matrix(int l) const {
  DSOUTH_CHECK(l >= 0 && l < num_levels());
  return levels_[static_cast<std::size_t>(l)].a;
}

double AmgHierarchy::operator_complexity() const {
  double total = 0.0;
  for (const auto& lvl : levels_) total += static_cast<double>(lvl.a.nnz());
  return total / static_cast<double>(levels_.front().a.nnz());
}

void AmgHierarchy::cycle_level(int l, std::span<const value_t> b,
                               std::span<value_t> x, Smoother& smoother) {
  Level& lvl = levels_[static_cast<std::size_t>(l)];
  if (l == num_levels() - 1) {
    coarse_solver_->solve(b, x);
    return;
  }
  smoother.smooth(lvl.a, b, x);   // pre-smooth
  lvl.a.residual(b, x, lvl.r);
  // Restriction = Pᵀ r (general form: P may be smoothed, with several
  // entries per row).
  std::fill(lvl.bc.begin(), lvl.bc.end(), 0.0);
  for (index_t i = 0; i < lvl.p.rows(); ++i) {
    auto cols = lvl.p.row_cols(i);
    auto vals = lvl.p.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      lvl.bc[static_cast<std::size_t>(cols[k])] +=
          vals[k] * lvl.r[static_cast<std::size_t>(i)];
    }
  }
  std::fill(lvl.xc.begin(), lvl.xc.end(), 0.0);
  cycle_level(l + 1, lvl.bc, lvl.xc, smoother);
  // Prolongation: x += P xc.
  lvl.p.spmv_acc(1.0, lvl.xc, x);
  smoother.smooth(lvl.a, b, x);   // post-smooth
}

void AmgHierarchy::vcycle(std::span<const value_t> b, std::span<value_t> x,
                          Smoother& smoother) {
  DSOUTH_CHECK(b.size() ==
               static_cast<std::size_t>(levels_.front().a.rows()));
  DSOUTH_CHECK(x.size() == b.size());
  cycle_level(0, b, x, smoother);
}

double AmgHierarchy::solve_relative_residual(std::span<const value_t> b,
                                             std::span<value_t> x,
                                             Smoother& smoother, int cycles) {
  Level& fine = levels_.front();
  fine.a.residual(b, x, fine.r);
  const value_t r0 = sparse::norm2(fine.r);
  DSOUTH_CHECK_MSG(r0 > 0.0, "initial residual is zero");
  for (int c = 0; c < cycles; ++c) vcycle(b, x, smoother);
  fine.a.residual(b, x, fine.r);
  return sparse::norm2(fine.r) / r0;
}

}  // namespace dsouth::multigrid
