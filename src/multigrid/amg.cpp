#include "multigrid/amg.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>

#include "sparse/scaling.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/stencils.hpp"
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

namespace {

/// Strength-of-connection threshold θ in |a_ij| > θ √(a_ii a_jj).
constexpr double kStrengthThreshold = 0.08;
/// Coarsening stops at a level with at most this many rows, at this many
/// levels, or when aggregation would shrink a level by less than this
/// factor (stagnation).
constexpr index_t kMaxCoarseRows = 64;
constexpr int kMaxLevels = 20;
constexpr double kMinCoarseningFactor = 1.2;
/// Power iterations and seed of the λ_max(D⁻¹A) estimate that damps the
/// prolongator smoothing.
constexpr int kLambdaIterations = 30;
constexpr std::uint64_t kLambdaSeed = 0xA3A1ULL;

/// Pᵀ restriction and P prolongation with an assembled prolongator.
class AssembledTransfer final : public Transfer {
 public:
  explicit AssembledTransfer(CsrMatrix p) : p_(std::move(p)) {}

  void restrict_residual(std::span<const value_t> fine_r,
                         std::span<value_t> coarse_b) const override {
    DSOUTH_CHECK(fine_r.size() == static_cast<std::size_t>(p_.rows()));
    DSOUTH_CHECK(coarse_b.size() == static_cast<std::size_t>(p_.cols()));
    // Pᵀ r scattered over the fine rows in ascending order (a smoothed P has
    // several entries per row).
    std::fill(coarse_b.begin(), coarse_b.end(), 0.0);
    for (index_t i = 0; i < p_.rows(); ++i) {
      auto cols = p_.row_cols(i);
      auto vals = p_.row_vals(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        coarse_b[static_cast<std::size_t>(cols[k])] +=
            vals[k] * fine_r[static_cast<std::size_t>(i)];
      }
    }
  }

  void prolong_add(std::span<const value_t> coarse_x,
                   std::span<value_t> fine_x) const override {
    p_.spmv_acc(1.0, coarse_x, fine_x);
  }

 private:
  CsrMatrix p_;
};

/// P = (I − ω D⁻¹A) P_tent with ω = 4/3 / λ_max(D⁻¹A). Plain
/// (piecewise-constant) aggregation contracts only ~0.6–0.8 per V-cycle;
/// smoothing the prolongator restores grid-independent rates at a modest
/// operator-complexity cost.
CsrMatrix smoothed_prolongator(const CsrMatrix& a, const CsrMatrix& p_tent) {
  // λ_max(D⁻¹A) equals λ_max of the symmetrically scaled operator
  // (similarity).
  auto scaled = sparse::symmetric_unit_diagonal_scale(a);
  const double lmax =
      sparse::lambda_max_estimate(scaled.a, kLambdaIterations, kLambdaSeed);
  const double omega = (4.0 / 3.0) / lmax;
  // S = I − ω D⁻¹ A, assembled by rescaling A's rows.
  CsrMatrix s = a;
  const auto diag = a.diagonal();
  auto vals = s.mutable_values();
  auto rp = s.row_ptr();
  auto ci = s.col_idx();
  for (index_t i = 0; i < s.rows(); ++i) {
    const double scale_i = -omega / diag[static_cast<std::size_t>(i)];
    for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
      vals[k] *= scale_i;
      if (ci[k] == i) vals[k] += 1.0;
    }
  }
  return sparse::spgemm(s, p_tent);
}

}  // namespace

Hierarchy amg_hierarchy(CsrMatrix a) {
  DSOUTH_CHECK(a.rows() == a.cols());
  std::vector<Hierarchy::Level> levels;
  while (a.rows() > kMaxCoarseRows &&
         static_cast<int>(levels.size()) + 1 < kMaxLevels) {
    index_t num_agg = 0;
    const auto agg = aggregate(a, kStrengthThreshold, &num_agg);
    const double factor =
        static_cast<double>(a.rows()) / static_cast<double>(num_agg);
    if (factor < kMinCoarseningFactor) break;
    CsrMatrix p =
        smoothed_prolongator(a, aggregation_prolongator(agg, num_agg));
    CsrMatrix a_coarse = sparse::galerkin_product(a, p);
    levels.push_back(
        {std::move(a), std::make_unique<AssembledTransfer>(std::move(p))});
    a = std::move(a_coarse);
  }
  levels.push_back({std::move(a), nullptr});
  return Hierarchy(std::move(levels));
}

}  // namespace dsouth::multigrid
