#pragma once

/// \file kernels.hpp
/// Batched subdomain kernels: the per-row inner loops of the distributed
/// solvers (one Gauss–Seidel sweep, residual norms) extracted into a layer
/// of their own so a batch of B independent systems that share one sparsity
/// pattern can be relaxed together.
///
/// Layout contract: batched vectors are structure-of-arrays with the batch
/// innermost — `x[i * lanes + l]` is row `i` of tenant `l`. Row `i`'s data
/// for all lanes is contiguous, so the per-row arithmetic (`x += d`,
/// `r -= a·d`) is a unit-stride loop over `lanes` that the compiler
/// auto-vectorizes (verified in `bench/micro_kernels`, BM_GsSweepBatch).
///
/// Bit-identity contract (the batching invariant of DESIGN.md §14): lane
/// `l` of a batched call produces bit-for-bit the iterates of an
/// independent scalar call on lane `l`'s data. Two details make that true:
///
///  - Per-lane operation ORDER matches the scalar kernel: for each row, the
///    lane's delta is applied, then its row-scatter entries in CSR order,
///    then its residual pin. Lanes never mix, so IEEE-754 non-associativity
///    cannot reorder any lane's additions.
///
///  - The scalar sweep SKIPS rows whose delta is exactly zero (no x write,
///    no scatter, no residual pin). A masked multiply-by-zero is NOT a
///    faithful substitute: `r -= a * 0.0` turns a stored `-0.0` residual
///    into `+0.0`, and the skipped pin would overwrite a `-0.0` with
///    `+0.0`. The batched sweep therefore branches per lane on
///    `delta != 0.0`; a fast path handles the common all-lanes-active row
///    with straight-line vectorizable code.

#include <cstddef>
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
/// the diagonal update pinned exactly (r_i = 0). a_ii is read through the
/// diagonal position CsrMatrix records at construction (no per-row
/// search), so `a_local` must be square. Returns the flop count charged to
/// the machine model (≈ 2·nnz + 2·m).
double gs_sweep(const CsrMatrix& a_local, std::span<value_t> x,
                std::span<value_t> r);

/// Batched Gauss–Seidel sweep over `lanes` systems sharing `a_local`'s
/// sparsity AND values, in the SoA layout above (`x.size() == m·lanes`).
/// Lane l is bit-identical to `gs_sweep` on that lane's data. Returns the
/// total flop count across lanes (`lanes ×` the scalar charge).
double gs_sweep_batch(const CsrMatrix& a_local, std::size_t lanes,
                      std::span<value_t> x, std::span<value_t> r);

/// Squared 2-norm of the local residual (the quantity the Southwell
/// methods exchange; squared to avoid needless square roots).
value_t norm_sq(std::span<const value_t> r);

/// Per-lane squared 2-norms of a batched SoA residual block: adds lane l's
/// partial into `out[l]` (callers zero or carry accumulators across
/// subdomain blocks). Lane l's additions happen in the same row order as a
/// scalar `norm_sq` over that lane, so each accumulated sum is
/// bit-identical to the unbatched one.
void norm_sq_batch(std::span<const value_t> r, std::size_t lanes,
                   std::span<value_t> out);

}  // namespace dsouth::kernels
