#pragma once

/// \file solver_base.hpp
/// Common state and helpers for the distributed block solvers
/// (Algorithms 1–3 of the paper). Each solver advances one *parallel step*
/// per `step()` call; a step is one or two simmpi epochs depending on the
/// method.
///
/// SPMD structure: a step's work is decomposed into per-rank phases —
/// `rank_*`(RankContext&, p) member functions that touch only rank-p state
/// (x_[p], r_[p], the cached ‖r_p‖² norm2_[p], scratch_[p], the solver's
/// per-rank estimate arrays) plus the rank-scoped runtime facade.
/// `for_each_live_rank` hands those phases to an ExecutionBackend, so
/// the same phase code runs sequentially or on a thread pool with
/// bit-identical results (the runtime merges staged effects
/// deterministically at the fence). Ranks never read each other's arrays
/// except through simmpi messages; the tests enforce the convergence
/// consequences of that discipline.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dist/layout.hpp"
#include "simmpi/execution.hpp"
#include "simmpi/rank_context.hpp"
#include "simmpi/runtime.hpp"
#include "wire/comm_plan.hpp"
#include "wire/wire.hpp"

namespace dsouth::dist {

/// What one parallel step did (for the driver's records).
struct DistStepStats {
  index_t active_ranks = 0;  ///< ranks that relaxed their subdomain
  index_t relaxations = 0;   ///< rows relaxed (sum of active subdomains)
};

/// Solver-side fault recovery (docs/resilience.md). When enabled, every
/// message ships in a sequenced wire-v2 envelope
/// (ChannelSet::set_sequencing) and the Δx payload fields carry ABSOLUTE
/// boundary x values instead of deltas. The receiver keeps a per-channel
/// cache of the sender's boundary x and applies the difference, which
/// makes absorption idempotent (a duplicated message applies a zero
/// delta) and self-healing (the message after a drop carries the full
/// accumulated change). Duplicated, reordered, truncated, and
/// bit-corrupted payloads are rejected by sequence gating and the
/// envelope checksum; estimate staleness from dropped messages is bounded
/// by a periodic full-state refresh on the conditional-send solvers
/// (Parallel/Distributed Southwell).
struct ResilienceOptions {
  bool enabled = false;
  /// Refresh-resend period, in parallel steps: a rank that has not sent a
  /// full-state (x-bearing) message to a neighbor for this many steps
  /// resends one unconditionally, bounding how stale a neighbor's ghost
  /// cache and Γ estimates can become after message loss. 0 disables the
  /// refresh (sequence gating and absolute-x encoding stay active).
  /// Block Jacobi and Multicolor Block GS send full state on every relax
  /// turn, so the period only affects PS and DS.
  index_t refresh_period = 8;
};

/// Counters kept by the resilient receive/refresh paths (summed over
/// ranks by DistStationarySolver::resilience_stats).
struct ResilienceStats {
  std::uint64_t rejected_corrupt = 0;  ///< decode failures (checksum, ...)
  std::uint64_t rejected_stale = 0;    ///< duplicate / out-of-order seq
  std::uint64_t refreshes_sent = 0;    ///< proactive full-state resends
};

/// Setup-phase helper shared with greedy_schwarz: r_p -= A_pp x_p +
/// Σ_q A_pq x_q for rank p. Reads neighbor x directly (the paper's
/// artifact likewise distributes the assembled system before the solve
/// phase); per-rank, so a backend may run it for all ranks concurrently.
void subtract_a_times_x_local(const DistLayout& layout,
                              const std::vector<std::vector<value_t>>& x,
                              std::vector<value_t>& r_p, int p);

/// One rank's share of an epoch phase: fn(ctx, p) touches only rank p.
using RankPhase = std::function<void(simmpi::RankContext&, int)>;

/// Run fn(ctx, p) for every rank p on `backend` (one epoch phase) — the
/// one rank runner of every step. A permanently failed rank
/// (faults::RankKill) stops the moment it dies: no phases run, its window
/// is never absorbed, and peers observe silence (the runtime swallows its
/// traffic at the fence). rank_dead is constant-false without a kill plan,
/// so kill-free runs take the exact same path either way.
void for_each_live_rank(simmpi::ExecutionBackend& backend,
                        simmpi::Runtime& rt, const RankPhase& fn);

class DistStationarySolver;

/// Run one parallel step of `solvers`, which share `rt` and one method —
/// the one step schedule of every run, solo or batched:
///
///   begin_step() on each solver
///   bulk-synchronous:  for e in [0, step_epochs()):
///                        each live rank: every solver's rank_send(e); ship
///                        fence
///                        each live rank: absorb
///   event-driven:      each live rank: absorb; every solver's
///                        rank_async_send; ship
///                      fence
///
/// `absorb` empties rank p's window: a solo step passes the solver's
/// rank_absorb, the batch coordinator its tenant-frame demux. `ship`, when
/// non-empty, puts what the solvers staged (the coordinator's
/// wire::ChannelSet::ship_batch). Per-step stats stay in each solver's
/// slots for merge_rank_stats.
void run_parallel_step(simmpi::ExecutionBackend& backend, simmpi::Runtime& rt,
                       std::span<DistStationarySolver* const> solvers,
                       const RankPhase& absorb, const RankPhase& ship = {});

class DistStationarySolver {
 public:
  /// b and x0 are global vectors; they are scattered across ranks here.
  /// `family` names the record types the solver's channels carry
  /// (absorb_payload decodes against it).
  DistStationarySolver(const DistLayout& layout, simmpi::Runtime& rt,
                       std::span<const value_t> b,
                       std::span<const value_t> x0, wire::Family family);
  virtual ~DistStationarySolver() = default;

  DistStationarySolver(const DistStationarySolver&) = delete;
  DistStationarySolver& operator=(const DistStationarySolver&) = delete;

  /// Advance one parallel step (including its fences): run_parallel_step
  /// on this solver alone, with rank_absorb and no ship.
  ///
  /// Under bulk-synchronous delivery this is the paper's stepping: one or
  /// two epochs with every message delivered at its closing fence. Under
  /// async delivery every solver switches to single-epoch relax-on-arrival
  /// stepping: absorb whatever matured into the window, relax on the
  /// (possibly stale, staleness-bounded) state, fold any phase-B traffic
  /// into the same epoch, fence once.
  ///
  /// Non-virtual: the schedule is run_parallel_step's, driven through the
  /// stepping hooks below, so the batch coordinator (batch.hpp) runs
  /// several solvers' phases inside the same shared epochs.
  DistStepStats step();
  virtual const char* name() const = 0;

  /// Absorb every message currently sitting in the windows, without
  /// fencing. Asynchronous runs call this after Runtime::drain_delayed()
  /// so the final iterate and residuals reflect all in-flight traffic;
  /// bulk-synchronous steps never leave messages behind.
  void absorb_all();

  // --- Stepping hooks -----------------------------------------------------
  // What run_parallel_step (above) calls, public so one schedule drives a
  // solo step and B tenants' phases inside shared epochs alike. Every hook
  // preserves the SPMD discipline (rank phases touch only rank-p state).
  // Calling them outside that schedule voids the byte-identity guarantees.

  /// Per-step bookkeeping that runs once, before any epoch (resilience
  /// step counter; DS advances its heartbeat clock, MCBGS its color).
  virtual void begin_step() { resil_begin_step(); }

  /// Number of bulk-synchronous epochs per parallel step (1 for Block
  /// Jacobi / Multicolor Block GS, 2 for the Southwell methods).
  virtual int step_epochs() const { return 1; }

  /// Rank p's send phase of epoch `e` (relax / residual-update / correct).
  /// A rank with nothing to do in this epoch (wrong color, criterion not
  /// met, feature disabled) returns without observable effect.
  virtual void rank_send(int e, simmpi::RankContext& ctx, int p) = 0;

  /// Rank p's fused send phase of an event-driven step: every epoch's send
  /// phase, in order, inside one epoch (the absorb half is the shared
  /// rank_absorb, run first by the schedule).
  void rank_async_send(simmpi::RankContext& ctx, int p) {
    for (int e = 0; e < step_epochs(); ++e) rank_send(e, ctx, p);
  }

  /// Rank p's absorb phase: dispatch every window message to
  /// absorb_payload by sender channel, trace, consume.
  void rank_absorb(simmpi::RankContext& ctx, int p);

  /// Apply one received payload on channel (p, neighbor nbi): unwrap it
  /// (accept_record — a bare record, or a sequenced envelope on resilient
  /// channels), decode it against the solver's record family, apply the
  /// boundary x of a solve-tagged record, then hand the norm fields to
  /// absorb_record. The batch coordinator calls this directly with
  /// tenant-frame bodies.
  void absorb_payload(simmpi::RankContext& ctx, int p, std::size_t nbi,
                      std::span<const double> payload);

  /// Sum the per-rank step-stat slots into one record and reset them
  /// (step() calls this last; the coordinator calls it per tenant).
  DistStepStats merge_rank_stats();

  /// Record the rank's absorb phase; call *before* ctx.consume(). Emits a
  /// kAbsorb event (a0 = messages in the window, a1 = total payload
  /// doubles) when the window is non-empty. Public for the coordinator's
  /// demux absorb.
  void trace_absorb(simmpi::RankContext& ctx);

  /// Rank p's wire channels (the coordinator toggles batch staging and
  /// ships the per-tenant buffers from here).
  wire::ChannelSet& channel(int p) { return channels_[static_cast<std::size_t>(p)]; }

  /// Toggle batch-staging mode (wire::ChannelSet::set_batch_staging) on
  /// every rank's channel set. Call between steps only.
  void set_batch_staging(bool on);
  // ------------------------------------------------------------------------

  const DistLayout& layout() const { return *layout_; }
  simmpi::Runtime& runtime() { return *rt_; }

  /// Select the backend that executes the per-rank phases. Not owned; must
  /// outlive the solver. Defaults to a private sequential backend.
  void set_backend(simmpi::ExecutionBackend& backend) { backend_ = &backend; }
  const simmpi::ExecutionBackend& backend() const { return *backend_; }

  /// Enable solver-side fault recovery (see ResilienceOptions). Must be
  /// called before the first step() — the receiver's boundary-x caches are
  /// initialized from the current iterate, which both ends only agree on
  /// at setup. make_dist_solver (driver.hpp) refuses the option
  /// combinations a solver cannot honour.
  void set_resilience(const ResilienceOptions& opt);
  bool resilient() const { return resil_.enabled; }
  const ResilienceOptions& resilience() const { return resil_; }

  /// Totals of the resilient-path counters across ranks (zeros when
  /// resilience is off).
  ResilienceStats resilience_stats() const;

  // --- Checkpoint (src/elastic) -------------------------------------------

  /// What an elastic checkpoint keeps of the solver: the per-rank iterate.
  /// Recovery needs nothing else — the fresh solver it builds re-derives
  /// the residuals from x and re-seeds every per-neighbor estimate (Γ, Γ̃,
  /// ghost layers, resilient caches) in its setup exchange.
  struct SolverState {
    std::vector<std::vector<value_t>> x;  ///< per-rank iterate
  };

  /// Capture the solver's iterate between steps.
  SolverState capture_state() const;
  // ------------------------------------------------------------------------

  /// Observer-side exact global residual norm: the square root of the
  /// per-rank ‖r_p‖², summed in rank order (local residuals are exact by
  /// construction in every method). Reads each rank's cached norm; a
  /// stale one is computed without being stored, so this stays const and
  /// may run between steps only.
  double global_residual_norm() const;

  /// Observer-side gather of the current iterate.
  std::vector<value_t> gather_x() const;

  std::span<const value_t> local_x(int p) const { return x_[p]; }

 protected:
  /// Apply the norm fields of a record received on channel (p, neighbor
  /// nbi); absorb_payload has already applied its boundary x. Default:
  /// the record carries none (Block Jacobi).
  virtual void absorb_record(int /*p*/, std::size_t /*nbi*/,
                             const wire::Record& /*rec*/) {}

  /// Rank p's ‖r_p‖²: kernels::norm_sq(r_[p]), computed on the first read
  /// after r_[p] changed and reused until it changes again. Only
  /// relax_subdomain's sweep and apply_incoming_delta write r_[p] after
  /// construction, and each marks the slot stale, so every read returns
  /// norm_sq over the current bits of r_[p]. Call from rank p's phase (or
  /// set-up).
  value_t local_norm_sq(int p);

  /// Observability hook (docs/observability.md; trace_absorb above is its
  /// public sibling). An inlined no-op on untraced runs and never changes
  /// the simulation state, so enabling tracing cannot change results.
  ///
  /// Record that rank `ctx.rank()` relaxed `rows` rows this epoch: emits a
  /// kRelax event (a0 = rows, a1 = the rank's new local ‖r‖², read through
  /// local_norm_sq — filling the cache with the value the solver's next
  /// read would compute).
  void trace_relax(simmpi::RankContext& ctx, index_t rows);

  /// Relax rank p's (nonempty) subdomain with one Gauss–Seidel sweep — the
  /// relax step every solver shares: snapshot x on the rank's
  /// boundary_rows, sweep, mark ‖r_p‖² stale, charge the sweep's flops,
  /// count the relaxation, trace_relax. Returns scratch_[p] holding Δx at
  /// every boundary row (indexed by local row; other entries are stale),
  /// which is all a send loop or an a_qp product reads.
  std::span<const value_t> relax_subdomain(simmpi::RankContext& ctx, int p);

  /// r_p -= a_pq · Δx_q, mark ‖r_p‖² stale and charge the flops; dx is
  /// ordered by the neighbor's ghost_rows channel convention.
  void apply_incoming_delta(simmpi::RankContext& ctx, const NeighborBlock& nb,
                            std::span<const double> dx);

  /// The bare v1 record a payload received on channel (p, neighbor nbi)
  /// carries, for absorb_payload to decode: the payload itself on the
  /// plain path; on the resilient path the body of a valid, in-sequence
  /// envelope, or nullopt when the envelope is rejected (resil_accept).
  std::optional<std::span<const double>> accept_record(
      simmpi::RankContext& ctx, int p, std::size_t nbi,
      std::span<const double> payload) {
    if (!resilient()) return payload;
    return resil_accept(ctx, p, nbi, payload);
  }

  /// Apply the boundary-x field of a record received from neighbor nbi of
  /// rank p: a Δx on the plain path; absolute boundary x on the resilient
  /// path, applied as its difference from the cached ghost x (resil_delta).
  void absorb_boundary_x(simmpi::RankContext& ctx, int p, std::size_t nbi,
                         std::span<const double> x) {
    apply_incoming_delta(ctx, layout_->rank(p).neighbors[nbi],
                         resilient() ? resil_delta(p, nbi, x) : x);
  }

  /// What an outgoing boundary-x field of rank p reads: `dx` (Δx from
  /// relax_subdomain) on the plain path, or the absolute iterate on
  /// resilient channels (self-healing across message loss).
  std::span<const value_t> boundary_x_source(
      int p, std::span<const value_t> dx) const {
    if (!resilient()) return dx;
    return x_[static_cast<std::size_t>(p)];
  }

  /// Gather rank p's boundary x toward neighbor k into `out`, in the
  /// channel's send_rows_local order, from boundary_x_source(p, dx).
  void write_boundary_x(int p, std::size_t k, std::span<const value_t> dx,
                        std::span<double> out) const {
    const auto src = boundary_x_source(p, dx);
    const auto& rows = layout_->rank(p).neighbors[k].send_rows_local;
    for (std::size_t s = 0; s < rows.size(); ++s) {
      out[s] = src[static_cast<std::size_t>(rows[s])];
    }
  }

  /// Same, always absolute x (full-state refreshes).
  void write_boundary_x(int p, std::size_t k, std::span<double> out) const {
    write_boundary_x(p, k, x_[static_cast<std::size_t>(p)], out);
  }

  // --- Resilient-mode helpers (no-ops / unused unless resilient()). Each
  // touches only rank-p slots, preserving the SPMD phase discipline.

  /// Bump the solver's internal step counter; every step() implementation
  /// calls this first (it also locks set_resilience).
  void resil_begin_step() { ++resil_step_count_; }

  /// Validate one received payload on channel (p, neighbor nbi): decode
  /// the wire-v2 envelope and gate on its sequence number. Returns the
  /// record body, or nullopt when the payload was rejected
  /// (corrupt/truncated/stale/duplicate — counted in resil_stats_[p]).
  std::optional<std::span<const double>> resil_accept(
      simmpi::RankContext& ctx, int p, std::size_t nbi,
      std::span<const double> payload);

  /// Δx = x_abs - the cached boundary x of neighbor nbi of rank p, after
  /// which the cache holds x_abs — idempotent, reapplying the same x_abs
  /// gives a zero Δx. The span aliases rank p's resil_dx_ scratch.
  std::span<const double> resil_delta(int p, std::size_t nbi,
                                      std::span<const double> x_abs);

  /// Record that rank p sent a full-state (x-bearing) message to neighbor
  /// nbi this step — resets the channel's refresh clock.
  void resil_note_send(int p, std::size_t nbi);

  /// Same, for a proactive refresh (also counts refreshes_sent).
  void resil_note_refresh(simmpi::RankContext& ctx, int p, std::size_t nbi);

  /// True when rank p owes neighbor nbi a full-state refresh: no x-bearing
  /// message for >= refresh_period steps (and the period is nonzero).
  bool resil_refresh_due(int p, std::size_t nbi) const;

  const DistLayout* layout_;
  simmpi::Runtime* rt_;
  std::vector<std::vector<value_t>> x_, r_;
  /// Per-rank cached ‖r_p‖² (local_norm_sq); NaN marks a slot stale, so a
  /// non-finite residual whose norm is NaN recomputes on every read. One
  /// double per rank, written only by rank p's phase.
  std::vector<value_t> norm2_;
  /// Per-rank wire channels over the layout's CommPlan (channel index k ==
  /// neighbor index k). Each rank phase may touch only its own slot.
  std::vector<wire::ChannelSet> channels_;
  /// Per-rank Δx buffer of relax_subdomain (sized to the rank's subdomain,
  /// written only at its boundary rows) — each rank phase may use only its
  /// own slot.
  std::vector<std::vector<value_t>> scratch_;
  /// Per-rank step accounting, merged by merge_rank_stats().
  std::vector<DistStepStats> rank_stats_;
  /// The record types this solver's channels carry (absorb_payload).
  wire::Family family_;

  // --- Resilient-mode state (sized by set_resilience; empty otherwise).
  ResilienceOptions resil_{};
  index_t resil_step_count_ = 0;
  /// Per rank, per neighbor: cached boundary x of that neighbor, aligned
  /// with NeighborBlock::ghost_rows (what the last accepted message said).
  std::vector<std::vector<std::vector<value_t>>> ghost_x_;
  /// Per rank, per neighbor: lowest acceptable envelope sequence number
  /// (last accepted + 1); anything below is a duplicate or stale.
  std::vector<std::vector<std::uint64_t>> recv_min_seq_;
  /// Per rank, per neighbor: step index of the last x-bearing send.
  std::vector<std::vector<index_t>> last_send_step_;
  /// Per-rank Δx scratch for resil_delta (sized to the rank's
  /// widest incoming channel so the absorb path never allocates).
  std::vector<std::vector<value_t>> resil_dx_;
  /// Per-rank counters (each rank phase bumps only its own slot).
  std::vector<ResilienceStats> resil_stats_;
  trace::MetricId m_resil_rejected_ = trace::kInvalidMetric;
  trace::MetricId m_resil_refreshes_ = trace::kInvalidMetric;

 private:
  std::unique_ptr<simmpi::ExecutionBackend> owned_backend_;
  simmpi::ExecutionBackend* backend_;
};

}  // namespace dsouth::dist
