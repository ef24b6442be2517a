#pragma once

/// \file parallel_southwell.hpp
/// Block Parallel Southwell in distributed memory (paper Algorithm 2).
///
/// The method keeps every rank's knowledge of its neighbors' residual norms
/// (Γ) *exact* — that is its defining property and its communication
/// burden. Each parallel step is two epochs:
///
///   Epoch A — ranks whose ‖r_p‖ is maximal in {Γ_p, ‖r_p‖} relax their
///     subdomain and write (Δx boundary values, piggy-backed new ‖r_p‖²)
///     to every neighbor.
///   Epoch B — any rank whose norm changed since it last advertised it
///     (because updates arrived) broadcasts an explicit residual update to
///     every neighbor. These explicit updates are what Distributed
///     Southwell eliminates (paper Table 3).
///
/// Note this is Algorithm 2 of the paper, NOT the deadlock-prone scheme of
/// Ref. [18] (which skipped Epoch B and "deadlocks for all our test
/// problems", §4.2) — that scheme is available as an ablation switch.

#include "dist/solver_base.hpp"

namespace dsouth::dist {

class ParallelSouthwell final : public DistStationarySolver {
 public:
  /// `explicit_residual_updates = false` reproduces the Ref. [18] scheme
  /// (piggy-backed norms only), which stalls — used by the ablation bench.
  ParallelSouthwell(const DistLayout& layout, simmpi::Runtime& rt,
                    std::span<const value_t> b, std::span<const value_t> x0,
                    bool explicit_residual_updates = true);

  const char* name() const override { return "ParallelSouthwell"; }

  // Stepping hooks (solver_base.hpp): epoch 0 relaxes where the criterion
  // holds, epoch 1 broadcasts explicit residual updates (the Epoch B
  // fence/absorb runs even with the ablation switch off, as always).
  // Under async delivery both run in one epoch: after relaxing, the
  // advertised norm is already current, so the update only fires when
  // absorption alone changed the norm (or a resilient refresh is due).
  int step_epochs() const override { return 2; }
  void rank_send(int e, simmpi::RankContext& ctx, int p) override;

 protected:
  // Both record types carry the sender's new norm (Γ).
  void absorb_record(int p, std::size_t nbi,
                     const wire::Record& rec) override;

 private:
  // Wire records (encodings in wire/wire.hpp):
  //   SOLVE p->q: NormUpdate{norm2 = new ‖r_p‖², dx = boundary Δx}.
  //   RES   p->q: ResidualNorm{norm2 = current ‖r_p‖²}.
  void rank_relax(simmpi::RankContext& ctx, int p);
  void rank_residual_update(simmpi::RankContext& ctx, int p);

  bool explicit_residual_updates_;
  std::vector<std::vector<value_t>> gamma2_;   // per rank, per neighbor ‖r_q‖²
  std::vector<value_t> advertised2_;           // last norm² told to neighbors
};

}  // namespace dsouth::dist
