#pragma once

/// \file smoother.hpp
/// Smoother abstraction for the V-cycle, with the two smoothers the paper
/// compares in §4.1: Gauss–Seidel (the baseline) and scalar Distributed
/// Southwell with an exact relaxation budget of one or half a sweep.

#include <memory>
#include <span>

#include "sparse/csr.hpp"
#include "sparse/types.hpp"

namespace dsouth::multigrid {

using sparse::CsrMatrix;
using sparse::value_t;

/// A smoothing application: improve x for A x = b in place.
class Smoother {
 public:
  virtual ~Smoother() = default;
  virtual void smooth(const CsrMatrix& a, std::span<const value_t> b,
                      std::span<value_t> x) = 0;
};

/// One Gauss–Seidel sweep in natural order.
std::unique_ptr<Smoother> make_gauss_seidel_smoother();

/// Scalar Distributed Southwell with an exact relaxation budget of
/// `sweep_fraction` × n rounded down (1.0 = "1 sweep", 0.5 = the paper's
/// "1/2 sweep"). The final parallel step relaxes a random subset of the
/// selected rows so the budget is hit exactly (§4.1). The subset seed
/// advances per call so repeated smoothing applications draw different
/// subsets.
std::unique_ptr<Smoother> make_distributed_southwell_smoother(
    double sweep_fraction);

/// One sweep of damped Jacobi (ω = 2/3), as an extra comparison point.
std::unique_ptr<Smoother> make_jacobi_smoother();

/// Chebyshev polynomial smoother of degree 3: applies the Chebyshev
/// polynomial of D⁻¹A that is optimal on the smoothing band
/// [λ_max/30, λ_max], with λ_max estimated by power iteration on every
/// application. Classical choice for massively parallel smoothing because,
/// like Jacobi, it needs only SpMV — a natural comparison point for the
/// paper's Block Jacobi/Southwell discussion.
std::unique_ptr<Smoother> make_chebyshev_smoother();

}  // namespace dsouth::multigrid
