#include "multigrid/smoother.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/classic.hpp"
#include "core/dist_southwell_scalar.hpp"
#include "core/scalar_engine.hpp"
#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "sparse/vec.hpp"
#include "util/error.hpp"

namespace dsouth::multigrid {

namespace {

class GaussSeidelSmoother final : public Smoother {
 public:
  void smooth(const CsrMatrix& a, std::span<const value_t> b,
              std::span<value_t> x) override {
    core::ScalarRelaxationEngine eng(a, b, x, /*check_symmetry=*/false);
    for (sparse::index_t i = 0; i < a.rows(); ++i) eng.relax_row(i, 1.0);
    std::copy(eng.x().begin(), eng.x().end(), x.begin());
  }
};

class JacobiSmoother final : public Smoother {
 public:
  void smooth(const CsrMatrix& a, std::span<const value_t> b,
              std::span<value_t> x) override {
    core::ScalarRelaxationEngine eng(a, b, x, /*check_symmetry=*/false);
    std::vector<sparse::index_t> all(static_cast<std::size_t>(a.rows()));
    std::iota(all.begin(), all.end(), sparse::index_t{0});
    eng.relax_simultaneously(all, kOmega);
    std::copy(eng.x().begin(), eng.x().end(), x.begin());
  }

 private:
  static constexpr value_t kOmega = 2.0 / 3.0;
};

class DistSouthwellSmoother final : public Smoother {
 public:
  explicit DistSouthwellSmoother(double sweep_fraction)
      : sweep_fraction_(sweep_fraction) {
    DSOUTH_CHECK(sweep_fraction > 0.0);
  }

  void smooth(const CsrMatrix& a, std::span<const value_t> b,
              std::span<value_t> x) override {
    core::DistSouthwellScalarOptions opt;
    opt.max_relaxations = std::max<sparse::index_t>(
        1, static_cast<sparse::index_t>(
               sweep_fraction_ * static_cast<double>(a.rows())));
    // A generous step cap; the budget is the real stopping rule.
    opt.max_parallel_steps = opt.max_relaxations * 4 + 16;
    opt.subset_seed = seed_++;
    auto result = core::run_distributed_southwell_scalar(a, b, x, opt);
    std::copy(result.x.begin(), result.x.end(), x.begin());
  }

 private:
  double sweep_fraction_;
  std::uint64_t seed_ = 0x4d47534d4fULL;
};

class ChebyshevSmoother final : public Smoother {
 public:
  void smooth(const CsrMatrix& a, std::span<const value_t> b,
              std::span<value_t> x) override {
    const auto n = static_cast<std::size_t>(a.rows());
    DSOUTH_CHECK(b.size() == n && x.size() == n);
    // λ_max(D⁻¹A) equals λ_max of the symmetrically scaled operator
    // (similarity). It is estimated afresh on every application: a matrix
    // is known only by reference, so no cache key can tell two apart.
    auto scaled = sparse::symmetric_unit_diagonal_scale(a);
    const double beta =
        1.02 * sparse::lambda_max_estimate(scaled.a, 30, 0xC4EBULL);
    const double alpha = beta / kRatio;
    const double theta = 0.5 * (beta + alpha);
    const double delta = 0.5 * (beta - alpha);

    auto diag = a.diagonal();
    std::vector<value_t> r(n), z(n), d(n);
    // d₀ = D⁻¹ r / θ; x += d₀.
    a.residual(b, x, r);
    for (std::size_t i = 0; i < n; ++i) {
      d[i] = r[i] / (diag[i] * theta);
      x[i] += d[i];
    }
    const double sigma = theta / delta;
    double rho_prev = 1.0 / sigma;
    for (int k = 1; k < kDegree; ++k) {
      const double rho = 1.0 / (2.0 * sigma - rho_prev);
      a.residual(b, x, r);
      for (std::size_t i = 0; i < n; ++i) {
        z[i] = r[i] / diag[i];
        d[i] = rho * rho_prev * d[i] + (2.0 * rho / delta) * z[i];
        x[i] += d[i];
      }
      rho_prev = rho;
    }
  }

 private:
  static constexpr int kDegree = 3;
  /// The smoothing band is [λ_max / kRatio, λ_max].
  static constexpr double kRatio = 30.0;
};

}  // namespace

std::unique_ptr<Smoother> make_gauss_seidel_smoother() {
  return std::make_unique<GaussSeidelSmoother>();
}

std::unique_ptr<Smoother> make_distributed_southwell_smoother(
    double sweep_fraction) {
  return std::make_unique<DistSouthwellSmoother>(sweep_fraction);
}

std::unique_ptr<Smoother> make_jacobi_smoother() {
  return std::make_unique<JacobiSmoother>();
}

std::unique_ptr<Smoother> make_chebyshev_smoother() {
  return std::make_unique<ChebyshevSmoother>();
}

}  // namespace dsouth::multigrid
