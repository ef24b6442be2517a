#include "dist/solver_base.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "kernels/kernels.hpp"
#include "util/error.hpp"

namespace dsouth::dist {

namespace {

/// The stale mark of a norm2_ slot (norm_sq never returns NaN for a
/// finite residual).
constexpr value_t kStaleNorm = std::numeric_limits<value_t>::quiet_NaN();

}  // namespace

void subtract_a_times_x_local(const DistLayout& layout,
                              const std::vector<std::vector<value_t>>& x,
                              std::vector<value_t>& r_p, int p) {
  const RankData& rd = layout.rank(p);
  if (rd.num_rows() == 0) return;
  rd.a_local.spmv_acc(-1.0, x[static_cast<std::size_t>(p)], r_p);
  std::size_t width = 0;
  for (const auto& nb : rd.neighbors) {
    width = std::max(width, nb.ghost_rows.size());
  }
  std::vector<value_t> xg(width);  // one gather buffer for every neighbor
  for (const auto& nb : rd.neighbors) {
    for (std::size_t k = 0; k < nb.ghost_rows.size(); ++k) {
      const index_t g = nb.ghost_rows[k];
      xg[k] = x[static_cast<std::size_t>(layout.rank_of_row(g))]
               [static_cast<std::size_t>(layout.local_of_row(g))];
    }
    nb.subtract_coupling({xg.data(), nb.ghost_rows.size()}, r_p);
  }
}

DistStationarySolver::DistStationarySolver(const DistLayout& layout,
                                           simmpi::Runtime& rt,
                                           std::span<const value_t> b,
                                           std::span<const value_t> x0,
                                           wire::Family family)
    : layout_(&layout),
      rt_(&rt),
      family_(family),
      owned_backend_(std::make_unique<simmpi::SequentialBackend>()),
      backend_(owned_backend_.get()) {
  DSOUTH_CHECK(rt.num_ranks() == layout.num_ranks());
  DSOUTH_CHECK(b.size() == static_cast<std::size_t>(layout.global_rows()));
  DSOUTH_CHECK(x0.size() == static_cast<std::size_t>(layout.global_rows()));
  x_ = layout.scatter(x0);
  // Initial residual r_p = b_p - A_pp x_p - Σ_q A_pq x_q (setup phase; may
  // read neighbor x directly).
  r_ = layout.scatter(b);
  const auto nranks = static_cast<std::size_t>(layout.num_ranks());
  norm2_.assign(nranks, kStaleNorm);
  scratch_.resize(nranks);
  rank_stats_.resize(nranks);
  channels_.reserve(nranks);
  for (int p = 0; p < layout.num_ranks(); ++p) {
    subtract_a_times_x_local(layout, x_, r_[static_cast<std::size_t>(p)], p);
    scratch_[static_cast<std::size_t>(p)].resize(
        static_cast<std::size_t>(layout.rank(p).num_rows()));
    channels_.emplace_back(layout.comm_plan(), p);
  }
}

value_t DistStationarySolver::local_norm_sq(int p) {
  value_t& n2 = norm2_[static_cast<std::size_t>(p)];
  if (std::isnan(n2)) n2 = kernels::norm_sq(r_[static_cast<std::size_t>(p)]);
  return n2;
}

void DistStationarySolver::trace_relax(simmpi::RankContext& ctx,
                                       index_t rows) {
  if (!ctx.tracing()) return;
  ctx.trace_event(trace::EventKind::kRelax, static_cast<double>(rows),
                  local_norm_sq(ctx.rank()));
}

std::span<const value_t> DistStationarySolver::relax_subdomain(
    simmpi::RankContext& ctx, int p) {
  const auto up = static_cast<std::size_t>(p);
  const RankData& rd = layout_->rank(p);
  auto& xp = x_[up];
  auto& dx = scratch_[up];
  for (index_t li : rd.boundary_rows) {
    dx[static_cast<std::size_t>(li)] = xp[static_cast<std::size_t>(li)];
  }
  ctx.add_flops(kernels::gs_sweep(rd.a_local, xp, r_[up]));
  norm2_[up] = kStaleNorm;
  ++rank_stats_[up].active_ranks;
  rank_stats_[up].relaxations += rd.num_rows();
  trace_relax(ctx, rd.num_rows());
  for (index_t li : rd.boundary_rows) {
    const auto i = static_cast<std::size_t>(li);
    dx[i] = xp[i] - dx[i];
  }
  return dx;
}

void DistStationarySolver::trace_absorb(simmpi::RankContext& ctx) {
  if (!ctx.tracing()) return;
  const auto window = ctx.window();
  if (window.empty()) return;
  std::size_t doubles = 0;
  for (const auto& msg : window) doubles += msg.payload.size();
  ctx.trace_event(trace::EventKind::kAbsorb,
                  static_cast<double>(window.size()),
                  static_cast<double>(doubles));
}

double DistStationarySolver::global_residual_norm() const {
  double sum = 0.0;
  for (std::size_t p = 0; p < r_.size(); ++p) {
    sum += std::isnan(norm2_[p]) ? kernels::norm_sq(r_[p]) : norm2_[p];
  }
  return std::sqrt(sum);
}

std::vector<value_t> DistStationarySolver::gather_x() const {
  return layout_->gather(x_);
}

DistStepStats DistStationarySolver::step() {
  DistStationarySolver* const self = this;
  run_parallel_step(*backend_, *rt_, {&self, 1},
                    [self](simmpi::RankContext& ctx, int p) {
                      self->rank_absorb(ctx, p);
                    });
  return merge_rank_stats();
}

void DistStationarySolver::rank_absorb(simmpi::RankContext& ctx, int p) {
  const RankData& rd = layout_->rank(p);
  for (const auto& msg : ctx.window()) {
    const int nbi = rd.neighbor_index(msg.source);
    DSOUTH_CHECK_MSG(nbi >= 0, "message from non-neighbor " << msg.source);
    absorb_payload(ctx, p, static_cast<std::size_t>(nbi), msg.payload);
  }
  trace_absorb(ctx);
  ctx.consume();
}

void DistStationarySolver::absorb_payload(simmpi::RankContext& ctx, int p,
                                          std::size_t nbi,
                                          std::span<const double> payload) {
  const auto body = accept_record(ctx, p, nbi, payload);
  if (!body) return;
  // Decode against the channel's receive width (the codec validates every
  // length). Exactly the solve-tagged record types carry boundary x.
  const std::size_t width = layout_->rank(p).neighbors[nbi].ghost_rows.size();
  const auto rec = wire::decode_record(family_, *body, width);
  if (wire::tag_of(rec.type) == simmpi::MsgTag::kSolve) {
    absorb_boundary_x(ctx, p, nbi, rec.dx);
  }
  absorb_record(p, nbi, rec);
}

void DistStationarySolver::absorb_all() {
  for_each_live_rank(*backend_, *rt_,
                     [this](simmpi::RankContext& ctx, int p) {
                       rank_absorb(ctx, p);
                     });
}

void DistStationarySolver::set_batch_staging(bool on) {
  for (auto& ch : channels_) ch.set_batch_staging(on);
}

void DistStationarySolver::set_resilience(const ResilienceOptions& opt) {
  DSOUTH_CHECK_MSG(resil_step_count_ == 0,
                   "set_resilience must precede the first step");
  DSOUTH_CHECK_MSG(opt.refresh_period >= 0, "refresh_period must be >= 0");
  resil_ = opt;
  for (auto& ch : channels_) ch.set_sequencing(opt.enabled);
  if (!opt.enabled) {
    ghost_x_.clear();
    recv_min_seq_.clear();
    last_send_step_.clear();
    resil_dx_.clear();
    resil_stats_.clear();
    return;
  }
  const auto nranks = static_cast<std::size_t>(layout_->num_ranks());
  ghost_x_.resize(nranks);
  recv_min_seq_.resize(nranks);
  last_send_step_.resize(nranks);
  resil_dx_.resize(nranks);
  resil_stats_.assign(nranks, ResilienceStats{});
  for (int p = 0; p < layout_->num_ranks(); ++p) {
    const RankData& rd = layout_->rank(p);
    const auto up = static_cast<std::size_t>(p);
    ghost_x_[up].resize(rd.neighbors.size());
    recv_min_seq_[up].assign(rd.neighbors.size(), 0);
    // Setup counts as a full exchange: both ends agree on x0 exactly.
    last_send_step_[up].assign(rd.neighbors.size(), 0);
    std::size_t max_width = 0;
    for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
      const auto& nb = rd.neighbors[k];
      max_width = std::max(max_width, nb.ghost_rows.size());
      auto& cache = ghost_x_[up][k];
      cache.resize(nb.ghost_rows.size());
      for (std::size_t g = 0; g < nb.ghost_rows.size(); ++g) {
        const index_t gr = nb.ghost_rows[g];
        cache[g] = x_[static_cast<std::size_t>(layout_->rank_of_row(gr))]
                     [static_cast<std::size_t>(layout_->local_of_row(gr))];
      }
    }
    resil_dx_[up].resize(max_width);
  }
  if (auto* tracer = rt_->tracer()) {
    auto& m = tracer->metrics();
    m_resil_rejected_ = m.register_metric("solver.resil_rejected",
                                          trace::MetricKind::kCounter);
    m_resil_refreshes_ = m.register_metric("solver.resil_refreshes",
                                           trace::MetricKind::kCounter);
  }
}

DistStationarySolver::SolverState DistStationarySolver::capture_state()
    const {
  return SolverState{x_};
}

ResilienceStats DistStationarySolver::resilience_stats() const {
  ResilienceStats total;
  for (const auto& st : resil_stats_) {
    total.rejected_corrupt += st.rejected_corrupt;
    total.rejected_stale += st.rejected_stale;
    total.refreshes_sent += st.refreshes_sent;
  }
  return total;
}

std::optional<std::span<const double>> DistStationarySolver::resil_accept(
    simmpi::RankContext& ctx, int p, std::size_t nbi,
    std::span<const double> payload) {
  const auto up = static_cast<std::size_t>(p);
  try {
    const wire::EnvelopeView env = wire::decode_envelope(payload);
    auto& next = recv_min_seq_[up][nbi];
    if (env.seq < next) {
      ++resil_stats_[up].rejected_stale;
      ctx.metric_add(m_resil_rejected_, 1.0);
      return std::nullopt;
    }
    next = env.seq + 1;
    return env.body;
  } catch (const wire::DecodeError&) {
    // Truncated, bit-corrupted, or otherwise malformed — drop it; the
    // sender's next (or refresh) message carries the full state anyway.
    ++resil_stats_[up].rejected_corrupt;
    ctx.metric_add(m_resil_rejected_, 1.0);
    return std::nullopt;
  }
}

std::span<const double> DistStationarySolver::resil_delta(
    int p, std::size_t nbi, std::span<const double> x_abs) {
  const auto up = static_cast<std::size_t>(p);
  auto& cache = ghost_x_[up][nbi];
  DSOUTH_CHECK(x_abs.size() == cache.size());
  const std::span<value_t> dx(resil_dx_[up].data(), cache.size());
  for (std::size_t g = 0; g < cache.size(); ++g) {
    dx[g] = x_abs[g] - cache[g];
    cache[g] = x_abs[g];
  }
  return dx;
}

void DistStationarySolver::resil_note_send(int p, std::size_t nbi) {
  last_send_step_[static_cast<std::size_t>(p)][nbi] = resil_step_count_;
}

void DistStationarySolver::resil_note_refresh(simmpi::RankContext& ctx,
                                              int p, std::size_t nbi) {
  resil_note_send(p, nbi);
  ++resil_stats_[static_cast<std::size_t>(p)].refreshes_sent;
  ctx.metric_add(m_resil_refreshes_, 1.0);
}

bool DistStationarySolver::resil_refresh_due(int p, std::size_t nbi) const {
  if (resil_.refresh_period <= 0) return false;
  const auto up = static_cast<std::size_t>(p);
  return resil_step_count_ - last_send_step_[up][nbi] >=
         resil_.refresh_period;
}

// Every closure handed to run_epoch or for_each_live_rank below captures
// exactly one reference (8 bytes) to a stack-local struct, so each
// std::function it becomes fits in libstdc++'s small buffer (16 bytes) —
// capturing several references directly would heap-allocate on every epoch
// and break the hot path's zero-allocation guarantee (tested in test_wire).
void for_each_live_rank(simmpi::ExecutionBackend& backend,
                        simmpi::Runtime& rt, const RankPhase& fn) {
  struct Call {
    simmpi::Runtime* rt;
    const RankPhase* fn;
  } call{&rt, &fn};
  backend.run_epoch(rt.num_ranks(), [&call](int p) {
    if (call.rt->rank_dead(p)) return;
    simmpi::RankContext ctx(*call.rt, p);
    (*call.fn)(ctx, p);
  });
}

void run_parallel_step(simmpi::ExecutionBackend& backend, simmpi::Runtime& rt,
                       std::span<DistStationarySolver* const> solvers,
                       const RankPhase& absorb, const RankPhase& ship) {
  DSOUTH_CHECK(!solvers.empty());
  for (DistStationarySolver* s : solvers) s->begin_step();
  struct Step {
    std::span<DistStationarySolver* const> solvers;
    const RankPhase* absorb;
    const RankPhase* ship;
    int epoch;
  } step{solvers, &absorb, &ship, 0};
  if (rt.async_delivery()) {
    for_each_live_rank(backend, rt, [&step](simmpi::RankContext& ctx, int p) {
      (*step.absorb)(ctx, p);
      for (DistStationarySolver* s : step.solvers) s->rank_async_send(ctx, p);
      if (*step.ship) (*step.ship)(ctx, p);
    });
    rt.fence();
    return;
  }
  const int epochs = solvers.front()->step_epochs();
  for (; step.epoch < epochs; ++step.epoch) {
    for_each_live_rank(backend, rt, [&step](simmpi::RankContext& ctx, int p) {
      for (DistStationarySolver* s : step.solvers) {
        s->rank_send(step.epoch, ctx, p);
      }
      if (*step.ship) (*step.ship)(ctx, p);
    });
    rt.fence();
    for_each_live_rank(backend, rt, absorb);
  }
}

DistStepStats DistStationarySolver::merge_rank_stats() {
  DistStepStats total;
  for (auto& st : rank_stats_) {
    total.active_ranks += st.active_ranks;
    total.relaxations += st.relaxations;
    st = DistStepStats{};
  }
  return total;
}

void DistStationarySolver::apply_incoming_delta(simmpi::RankContext& ctx,
                                                const NeighborBlock& nb,
                                                std::span<const double> dx) {
  const auto up = static_cast<std::size_t>(ctx.rank());
  nb.subtract_coupling(dx, r_[up]);
  norm2_[up] = kStaleNorm;
  ctx.add_flops(2.0 * static_cast<double>(nb.a_pq.nnz()));
}

}  // namespace dsouth::dist
