#pragma once

/// \file amg.hpp
/// Smoothed-aggregation algebraic multigrid. The paper's geometric study
/// (§4.1, Figure 6) runs on a structured Poisson grid; AMG extends the
/// same smoothing question — is Distributed Southwell an effective,
/// budget-exact smoother? — to the *unstructured* proxy matrices, where no
/// geometric hierarchy exists. Standard construction:
///
///   1. strength graph: |a_ij| > θ √(a_ii a_jj)
///   2. greedy aggregation of strongly-connected neighborhoods
///   3. piecewise-constant tentative prolongator (one column per
///      aggregate), smoothed by one damped Jacobi step
///   4. Galerkin coarse operator A_c = Pᵀ A P (sparse triple product)
///
/// recursing until the operator is small enough for a dense Cholesky.

#include <span>
#include <vector>

#include "multigrid/hierarchy.hpp"
#include "sparse/csr.hpp"
#include "sparse/types.hpp"

namespace dsouth::multigrid {

using sparse::index_t;

/// Greedy aggregation of the strength graph of `a`: returns per-row
/// aggregate ids (dense from 0) and the number of aggregates. Exposed for
/// tests and for inspecting the hierarchy.
std::vector<index_t> aggregate(const sparse::CsrMatrix& a,
                               double strength_threshold,
                               index_t* num_aggregates);

/// Piecewise-constant prolongator for an aggregation (one unit entry per
/// row).
sparse::CsrMatrix aggregation_prolongator(std::span<const index_t> agg,
                                          index_t num_aggregates);

/// The smoothed-aggregation hierarchy of `a` (any SPD matrix; level 0
/// holds it), with the constants of amg.cpp.
Hierarchy amg_hierarchy(sparse::CsrMatrix a);

}  // namespace dsouth::multigrid
