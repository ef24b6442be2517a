#include "dist/batch.hpp"

#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "wire/wire.hpp"

namespace dsouth::dist {

BatchRunResult run_distributed_batch(DistMethod method,
                                     std::span<const DistLayout* const> layouts,
                                     std::span<const TenantSpec> specs,
                                     const DistRunOptions& opt) {
  DSOUTH_CHECK_MSG(!specs.empty(), "batched run needs at least one tenant");
  // Observer policies defined on a single trajectory do not lift to a
  // batch; reject rather than silently half-apply them.
  DSOUTH_CHECK_MSG(!opt.watchdog.enabled,
                   "the divergence watchdog is not supported for batched "
                   "runs (per-tenant stop_at_residual is)");
  DSOUTH_CHECK_MSG(opt.divergence_abort == 0.0,
                   "divergence_abort is not supported for batched runs");

  // --- Runtime, attachments and one solver per tenant: the same assembly
  // run_distributed uses, so every feature (async delivery, node topology,
  // tracing, faults) composes with batching the way it composes with a
  // solo run. A batch of one gets exactly run_distributed's stack.
  RunHarness h(method, layouts, specs, opt);
  simmpi::Runtime& rt = h.runtime();
  const std::size_t batch = specs.size();
  const DistLayout& layout = *layouts[0];
  const int num_ranks = layout.num_ranks();

  BatchRunResult result;
  result.method = method_name(method);
  result.num_ranks = num_ranks;
  result.n = layout.global_rows();
  result.batch = batch;
  result.backend = h.backend().name();
  result.num_threads = h.backend().num_threads();
  result.tenants.resize(batch);

  // --- Shared-epoch scheduling state, reached by the rank phases through
  // one pointer (see for_each_live_rank). All per-rank phase scratch is
  // per-slot (the SPMD discipline): a rank phase touches only
  // rank_sets[p] and rejected_per_rank[p].
  struct Schedule {
    RunHarness* h;
    std::size_t batch;
    std::vector<int> active_ids;
    std::vector<std::vector<wire::ChannelSet*>> rank_sets;
    std::vector<std::uint64_t> rejected_per_rank;
  } sched{&h, batch, {},
          std::vector<std::vector<wire::ChannelSet*>>(
              static_cast<std::size_t>(num_ranks)),
          std::vector<std::uint64_t>(static_cast<std::size_t>(num_ranks), 0)};
  std::vector<DistStationarySolver*> active_solvers;

  // A batch of one stages no tenant frames: its solver absorbs its own
  // window and puts its own records, exactly as in run_distributed.
  RankPhase absorb = [solo = &h.solver()](simmpi::RankContext& ctx, int p) {
    solo->rank_absorb(ctx, p);
  };
  RankPhase ship;
  if (batch > 1) {
    // Demultiplexing absorb: every window payload is a tenant frame; walk
    // it and hand each entry to its tenant's ordinary absorb path — the
    // per-tenant record streams (and so the per-tenant floating-point
    // schedules) are exactly the solo ones. Under fault injection a frame
    // that fails structural validation (tenant ids included) is rejected
    // and counted; entries already dispatched stay applied (each rides its
    // own sequenced envelope, so per-tenant idempotence covers the partial
    // application). Without faults a malformed frame is a bug and throws.
    absorb = [&sched](simmpi::RankContext& ctx, int p) {
      RunHarness& harness = *sched.h;
      const RankData& rd = harness.solver().layout().rank(p);
      for (const auto& msg : ctx.window()) {
        const int nbi = rd.neighbor_index(msg.source);
        DSOUTH_CHECK_MSG(nbi >= 0, "message from non-neighbor " << msg.source);
        try {
          wire::for_each_tenant(
              msg.payload, sched.batch, [&](const wire::TenantEntry& e) {
                harness.solver(static_cast<std::size_t>(e.tenant))
                    .absorb_payload(ctx, p, static_cast<std::size_t>(nbi),
                                    e.body);
              });
        } catch (const wire::DecodeError&) {
          if (!harness.fault_schedule()) throw;
          ++sched.rejected_per_rank[static_cast<std::size_t>(p)];
        }
      }
      // One absorb event per rank for the shared window — frames are
      // shared wire, not any single tenant's traffic.
      harness.solver().trace_absorb(ctx);
      ctx.consume();
    };
    ship = [&sched](simmpi::RankContext& ctx, int p) {
      wire::ChannelSet::ship_batch(
          ctx, sched.rank_sets[static_cast<std::size_t>(p)],
          sched.active_ids);
    };
  }

  // Per-tenant exact residual norms.
  std::vector<double> rn(batch);
  const auto compute_norms = [&] {
    for (std::size_t t = 0; t < batch; ++t) {
      rn[t] = h.solver(t).global_residual_norm();
    }
  };
  const auto target_of = [&](std::size_t t) {
    return specs[t].stop_at_residual > 0.0 ? specs[t].stop_at_residual
                                           : opt.stop_at_residual;
  };

  std::vector<char> active(batch, 1);
  compute_norms();
  for (std::size_t t = 0; t < batch; ++t) {
    result.tenants[t].residual_norm.push_back(rn[t]);
    if (target_of(t) > 0.0 && rn[t] <= target_of(t)) {
      active[t] = 0;
      result.tenants[t].converged = true;
    }
  }

  for (index_t k = 0; k < opt.max_parallel_steps; ++k) {
    sched.active_ids.clear();
    active_solvers.clear();
    for (auto& sets : sched.rank_sets) sets.clear();
    for (std::size_t t = 0; t < batch; ++t) {
      if (!active[t]) continue;
      DistStationarySolver& s = h.solver(t);
      sched.active_ids.push_back(static_cast<int>(t));
      active_solvers.push_back(&s);
      for (int p = 0; p < num_ranks; ++p) {
        sched.rank_sets[static_cast<std::size_t>(p)].push_back(&s.channel(p));
      }
    }
    if (active_solvers.empty()) break;

    util::Stopwatch wall;
    run_parallel_step(h.backend(), rt, active_solvers, absorb, ship);
    result.wall_seconds += wall.seconds();
    ++result.steps_taken;

    compute_norms();
    for (int t : sched.active_ids) {
      const auto ut = static_cast<std::size_t>(t);
      const DistStepStats st = h.solver(ut).merge_rank_stats();
      result.tenants[ut].relaxations +=
          static_cast<std::uint64_t>(st.relaxations);
      result.tenants[ut].residual_norm.push_back(rn[ut]);
      ++result.tenants[ut].steps;
      if (target_of(ut) > 0.0 && rn[ut] <= target_of(ut)) {
        // Drop out: stop scheduling this tenant (it leaves the shared
        // frames) but keep absorbing anything still in flight to it.
        active[ut] = 0;
        result.tenants[ut].converged = true;
      }
    }
  }
  if (rt.async_delivery()) {
    // Deliver everything still maturing and absorb it through the step's
    // own absorb phase (RunHarness::drain_if_async for a batch).
    rt.drain_delayed();
    for_each_live_rank(h.backend(), rt, absorb);
    compute_norms();
  }

  result.comm_totals = h.comm_totals();
  for (std::size_t t = 0; t < batch; ++t) {
    TenantResult& tr = result.tenants[t];
    tr.final_residual = rn[t];
    tr.final_x = h.solver(t).gather_x();
    if (batch > 1) {
      tr.wire_records = rt.stats().tenant_records(t);
      tr.wire_doubles = rt.stats().tenant_doubles(t);
    } else {
      // A lone tenant's share is the whole wire: every message is one of
      // its records, charged header + 8 bytes per payload double
      // (simmpi::message_bytes).
      const auto& ct = result.comm_totals;
      tr.wire_records = ct.msgs_logical;
      tr.wire_doubles = (ct.bytes - simmpi::kMessageHeaderBytes * ct.msgs) / 8;
    }
  }
  for (std::uint64_t r : sched.rejected_per_rank) result.frames_rejected += r;
  result.model_time = rt.model_time_seconds();
  result.epochs = rt.epochs_completed();
  result.trace_log = h.finish();
  return result;
}

}  // namespace dsouth::dist
