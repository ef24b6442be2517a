#include "dist/distributed_southwell.hpp"

#include <algorithm>
#include <numeric>

namespace dsouth::dist {

DistributedSouthwell::DistributedSouthwell(
    const DistLayout& layout, simmpi::Runtime& rt, std::span<const value_t> b,
    std::span<const value_t> x0, const DistributedSouthwellOptions& opt)
    : DistStationarySolver(layout, rt, b, x0, wire::Family::kEstimate),
      opt_(opt) {
  const int nranks = layout.num_ranks();
  gamma2_.resize(static_cast<std::size_t>(nranks));
  gtilde2_.resize(static_cast<std::size_t>(nranks));
  ghost_.resize(static_cast<std::size_t>(nranks));
  corrections_sent_.assign(static_cast<std::size_t>(nranks), 0);
  deferred_sends_.assign(static_cast<std::size_t>(nranks), 0);
  if (auto* tracer = rt.tracer()) {
    auto& m = tracer->metrics();
    m_corrections_sent_ = m.register_metric("ds.corrections_sent",
                                            trace::MetricKind::kCounter);
    m_deferred_sends_ =
        m.register_metric("ds.deferred_sends", trace::MetricKind::kCounter);
  }
  if (opt_.send_threshold > 0.0) {
    pending_dx_.resize(static_cast<std::size_t>(nranks));
    for (int p = 0; p < nranks; ++p) {
      const RankData& rd = layout.rank(p);
      auto& pend = pending_dx_[static_cast<std::size_t>(p)];
      pend.resize(rd.neighbors.size());
      for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
        pend[k].assign(rd.neighbors[k].send_rows_local.size(), 0.0);
      }
    }
  }
  // Setup exchange (Alg. 3 lines 5-9): exact norms, exact ghost layers,
  // and consistent Γ̃ (everyone knows everyone's true norm at k=0). The
  // norm reads seed every rank's cache.
  for (int p = 0; p < nranks; ++p) {
    const RankData& rd = layout.rank(p);
    const auto up = static_cast<std::size_t>(p);
    gamma2_[up].resize(rd.neighbors.size());
    gtilde2_[up].resize(rd.neighbors.size());
    ghost_[up].resize(rd.neighbors.size());
    for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
      const auto& nb = rd.neighbors[k];
      gamma2_[up][k] = local_norm_sq(nb.rank);
      gtilde2_[up][k] = local_norm_sq(p);
      auto& z = ghost_[up][k];
      z.resize(nb.ghost_rows.size());
      for (std::size_t g = 0; g < nb.ghost_rows.size(); ++g) {
        const index_t gr = nb.ghost_rows[g];
        z[g] = r_[static_cast<std::size_t>(layout.rank_of_row(gr))]
                 [static_cast<std::size_t>(layout.local_of_row(gr))];
      }
    }
  }
}

std::uint64_t DistributedSouthwell::corrections_sent() const {
  return std::accumulate(corrections_sent_.begin(), corrections_sent_.end(),
                         std::uint64_t{0});
}

std::uint64_t DistributedSouthwell::deferred_sends() const {
  return std::accumulate(deferred_sends_.begin(), deferred_sends_.end(),
                         std::uint64_t{0});
}

void DistributedSouthwell::rank_relax(simmpi::RankContext& ctx, int p) {
  const RankData& rd = layout_->rank(p);
  if (rd.num_rows() == 0) return;
  const auto up = static_cast<std::size_t>(p);
  const value_t norm2 = local_norm_sq(p);
  ctx.add_flops(2.0 * static_cast<double>(rd.num_rows()));
  if (norm2 <= 0.0) return;
  for (value_t g : gamma2_[up]) {
    if (g > norm2) return;  // a Γ estimate says a neighbor is worse off
  }

  // Δx at the boundary rows only: a_qp's columns and every payload read
  // nothing else.
  const auto dx_full = relax_subdomain(ctx, p);
  const auto xs = boundary_x_source(p, dx_full);
  const auto& rp = r_[up];
  const value_t norm2_new = local_norm_sq(p);
  auto& ch = channels_[up];
  for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
    const auto& nb = rd.neighbors[k];
    // Local estimate maintenance: z_q -= a_qp · Δx_p, and fold the ghost
    // change into the Γ[q] estimate (all with local data only), in one
    // pass. Each row product sums from 0.0 in stored order, exactly as
    // CsrMatrix::spmv does.
    if (opt_.enable_local_estimates) {
      auto& z = ghost_[up][k];
      const auto row_ptr = nb.a_qp.row_ptr();
      const auto col_idx = nb.a_qp.col_idx();
      const auto vals = nb.a_qp.values();
      ctx.add_flops(2.0 * static_cast<double>(nb.a_qp.nnz()));
      value_t old_sq = 0.0, new_sq = 0.0;
      for (std::size_t g = 0; g < z.size(); ++g) {
        value_t dz = 0.0;
        for (index_t j = row_ptr[g]; j < row_ptr[g + 1]; ++j) {
          dz += vals[j] * dx_full[static_cast<std::size_t>(col_idx[j])];
        }
        old_sq += z[g] * z[g];
        z[g] -= dz;
        new_sq += z[g] * z[g];
      }
      gamma2_[up][k] =
          std::max<value_t>(0.0, gamma2_[up][k] + new_sq - old_sq);
    }
    // send_threshold extension: accumulate this relaxation's boundary
    // Δx and defer the message while the accumulated change is small
    // relative to the local residual norm.
    if (opt_.send_threshold > 0.0) {
      auto& pend = pending_dx_[up][k];
      value_t acc_sq = 0.0;
      for (std::size_t s = 0; s < nb.send_rows_local.size(); ++s) {
        pend[s] += dx_full[static_cast<std::size_t>(nb.send_rows_local[s])];
        acc_sq += pend[s] * pend[s];
      }
      if (acc_sq <= opt_.send_threshold * opt_.send_threshold * norm2_new) {
        ++deferred_sends_[up];
        ctx.metric_add(m_deferred_sends_, 1.0);
        continue;  // no message this step; Γ̃ untouched (q learns nothing)
      }
      gtilde2_[up][k] = norm2_new;
      auto rec = ch.open(ctx, k, wire::RecordType::kSolveUpdate, norm2_new,
                         gamma2_[up][k]);
      std::copy(pend.begin(), pend.end(), rec.dx.begin());
      for (std::size_t s = 0; s < nb.send_rows_local.size(); ++s) {
        rec.rb[s] = rp[static_cast<std::size_t>(nb.send_rows_local[s])];
      }
      std::fill(pend.begin(), pend.end(), 0.0);
      continue;
    }
    gtilde2_[up][k] = norm2_new;  // the message tells q our exact norm
    auto rec = ch.open(ctx, k, wire::RecordType::kSolveUpdate, norm2_new,
                       gamma2_[up][k]);
    // One fused gather: boundary x (write_boundary_x's source) and the
    // exact boundary residuals.
    for (std::size_t s = 0; s < nb.send_rows_local.size(); ++s) {
      const auto li = static_cast<std::size_t>(nb.send_rows_local[s]);
      rec.dx[s] = xs[li];
      rec.rb[s] = rp[li];
    }
    if (resilient()) resil_note_send(p, k);
  }
  ch.flush();
}

void DistributedSouthwell::rank_correct(simmpi::RankContext& ctx, int p,
                                        bool heartbeat) {
  const RankData& rd = layout_->rank(p);
  if (rd.num_rows() == 0 || rd.neighbors.empty()) return;
  const auto up = static_cast<std::size_t>(p);
  const value_t norm2 = local_norm_sq(p);
  ctx.add_flops(2.0 * static_cast<double>(rd.num_rows()));
  const auto& rp = r_[up];
  auto& ch = channels_[up];
  for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
    const auto& nb = rd.neighbors[k];
    // Resilient mode: a channel silent for >= refresh_period steps gets a
    // full SolveUpdate (absolute boundary x, exact boundary residuals,
    // norms) regardless of the Γ̃ condition — bounding the staleness a
    // dropped message can cause in the neighbor's estimates and cache.
    const bool refresh = resilient() && resil_refresh_due(p, k);
    const bool must_heartbeat = heartbeat && norm2 > 0.0;
    if (!refresh && !(norm2 < gtilde2_[up][k]) && !must_heartbeat) continue;
    auto rec = ch.open(ctx, k,
                       refresh ? wire::RecordType::kSolveUpdate
                               : wire::RecordType::kCorrection,
                       norm2, gamma2_[up][k]);
    for (std::size_t s = 0; s < nb.send_rows_local.size(); ++s) {
      rec.rb[s] = rp[static_cast<std::size_t>(nb.send_rows_local[s])];
    }
    gtilde2_[up][k] = norm2;  // a refresh also corrects any overestimate
    if (refresh) {
      write_boundary_x(p, k, rec.dx);
      resil_note_refresh(ctx, p, k);
    } else {
      ++corrections_sent_[up];
      ctx.metric_add(m_corrections_sent_, 1.0);
    }
  }
  ch.flush();
}

void DistributedSouthwell::absorb_record(int p, std::size_t nbi,
                                         const wire::Record& rec) {
  const auto up = static_cast<std::size_t>(p);
  std::copy(rec.rb.begin(), rec.rb.end(), ghost_[up][nbi].begin());
  gamma2_[up][nbi] = rec.norm2;
  gtilde2_[up][nbi] = rec.gamma2;
}

void DistributedSouthwell::begin_step() {
  DistStationarySolver::begin_step();
  // Epoch A never reads the step counter, so advancing it here (instead of
  // between the epochs) changes nothing; the heartbeat flag epoch B reads
  // is computed from the same value either way.
  ++step_count_;
  heartbeat_ =
      opt_.heartbeat_period > 0 && step_count_ % opt_.heartbeat_period == 0;
}

void DistributedSouthwell::rank_send(int e, simmpi::RankContext& ctx, int p) {
  if (e == 0) {
    // ---- Epoch A: relax where ‖r_p‖² is maximal among the Γ *estimates*.
    rank_relax(ctx, p);
    return;
  }
  // ---- Epoch B: deadlock avoidance — correct only overestimates of us.
  if (opt_.enable_corrections) rank_correct(ctx, p, heartbeat_);
}

}  // namespace dsouth::dist
