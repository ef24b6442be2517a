#include "dist/parallel_southwell.hpp"

#include "util/error.hpp"

namespace dsouth::dist {

ParallelSouthwell::ParallelSouthwell(const DistLayout& layout,
                                     simmpi::Runtime& rt,
                                     std::span<const value_t> b,
                                     std::span<const value_t> x0,
                                     bool explicit_residual_updates)
    : DistStationarySolver(layout, rt, b, x0, wire::Family::kNorm),
      explicit_residual_updates_(explicit_residual_updates) {
  const int nranks = layout.num_ranks();
  gamma2_.resize(static_cast<std::size_t>(nranks));
  advertised2_.resize(static_cast<std::size_t>(nranks));
  // Setup exchange: neighbors start with exact knowledge (Alg. 2 line 5).
  // The norm reads seed every rank's cache.
  for (int p = 0; p < nranks; ++p) {
    advertised2_[static_cast<std::size_t>(p)] = local_norm_sq(p);
  }
  for (int p = 0; p < nranks; ++p) {
    const RankData& rd = layout.rank(p);
    auto& g = gamma2_[static_cast<std::size_t>(p)];
    g.resize(rd.neighbors.size());
    for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
      g[k] = advertised2_[static_cast<std::size_t>(rd.neighbors[k].rank)];
    }
  }
}

void ParallelSouthwell::rank_relax(simmpi::RankContext& ctx, int p) {
  const RankData& rd = layout_->rank(p);
  if (rd.num_rows() == 0) return;
  const auto up = static_cast<std::size_t>(p);
  const value_t norm2 = local_norm_sq(p);
  ctx.add_flops(2.0 * static_cast<double>(rd.num_rows()));
  if (norm2 <= 0.0) return;
  for (value_t g : gamma2_[up]) {
    if (g > norm2) return;  // a neighbor is (believed) worse off
  }

  const auto dx = relax_subdomain(ctx, p);
  const value_t norm2_new = local_norm_sq(p);
  advertised2_[up] = norm2_new;
  auto& ch = channels_[up];
  for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
    write_boundary_x(
        p, k, dx,
        ch.open(ctx, k, wire::RecordType::kNormUpdate, norm2_new).dx);
    if (resilient()) resil_note_send(p, k);
  }
  ch.flush();
}

void ParallelSouthwell::rank_residual_update(simmpi::RankContext& ctx,
                                             int p) {
  const RankData& rd = layout_->rank(p);
  if (rd.num_rows() == 0 || rd.neighbors.empty()) return;
  const auto up = static_cast<std::size_t>(p);
  const value_t norm2 = local_norm_sq(p);
  ctx.add_flops(2.0 * static_cast<double>(rd.num_rows()));
  const bool norm_changed = norm2 != advertised2_[up];
  auto& ch = channels_[up];
  if (!resilient()) {
    if (!norm_changed) return;
    advertised2_[up] = norm2;
    for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
      ch.open(ctx, k, wire::RecordType::kResidualNorm, norm2);
    }
    ch.flush();
    return;
  }
  // Resilient mode: a channel silent for >= refresh_period steps gets a
  // full-state NormUpdate (absolute boundary x + current norm) even when
  // the norm is unchanged — this bounds the staleness a dropped message
  // can cause in both the neighbor's Γ entry and its boundary-x cache.
  for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
    if (resil_refresh_due(p, k)) {
      write_boundary_x(
          p, k, ch.open(ctx, k, wire::RecordType::kNormUpdate, norm2).dx);
      resil_note_refresh(ctx, p, k);
    } else if (norm_changed) {
      ch.open(ctx, k, wire::RecordType::kResidualNorm, norm2);
    }
  }
  if (norm_changed) advertised2_[up] = norm2;
  ch.flush();
}

void ParallelSouthwell::absorb_record(int p, std::size_t nbi,
                                      const wire::Record& rec) {
  gamma2_[static_cast<std::size_t>(p)][nbi] = rec.norm2;
}

void ParallelSouthwell::rank_send(int e, simmpi::RankContext& ctx, int p) {
  if (e == 0) {
    // ---- Epoch A: relax where the Parallel Southwell criterion holds.
    rank_relax(ctx, p);
    return;
  }
  // ---- Epoch B: explicit residual updates wherever the norm changed
  // (Alg. 2 lines 19-21). This is the traffic Distributed Southwell cuts.
  if (explicit_residual_updates_) rank_residual_update(ctx, p);
}

}  // namespace dsouth::dist
