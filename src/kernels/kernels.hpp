#pragma once

/// \file kernels.hpp
/// Subdomain kernels: the per-row inner loops of the distributed solvers
/// (one Gauss–Seidel sweep, residual norms). The sweep works purely on the
/// locally-exact residual, so no ghost copy of x is ever needed.

#include <span>

#include "sparse/csr.hpp"
#include "sparse/types.hpp"

namespace dsouth::kernels {

using sparse::CsrMatrix;
using sparse::index_t;
using sparse::value_t;

/// One Gauss–Seidel sweep over the local block ("when a process updates, a
/// single Gauss-Seidel sweep is carried out on the subdomain", paper §4.2):
/// for each local row i in ascending order, x_i += r_i / a_ii and
/// r_j -= a_ji δ for local j (symmetric block ⇒ column i is row i), with
/// the diagonal update pinned exactly (r_i = 0). Rows whose delta is
/// exactly zero are skipped outright (no x write, no scatter, no pin), so a
/// stored -0.0 residual is never rewritten. a_ii is read through the
/// diagonal position CsrMatrix records at construction (no per-row
/// search), so `a_local` must be square. Returns the flop count charged to
/// the machine model (≈ 2·nnz + 2·m).
double gs_sweep(const CsrMatrix& a_local, std::span<value_t> x,
                std::span<value_t> r);

/// Squared 2-norm of the local residual (the quantity the Southwell
/// methods exchange; squared to avoid needless square roots). The sum
/// runs in a fixed order, one accumulator from 0.0, so runs are
/// bit-reproducible; that makes it latency-bound (one dependent add per
/// row), and the distributed solvers read it through
/// DistStationarySolver's per-rank cache, once per change of r.
value_t norm_sq(std::span<const value_t> r);

}  // namespace dsouth::kernels
