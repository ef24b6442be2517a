#include "dist/batch.hpp"

#include <functional>

#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "wire/wire.hpp"

namespace dsouth::dist {

namespace {

/// B == 1 degenerates to the unbatched driver: delegate wholesale, so a
/// single-tenant batched run is byte-identical to run_distributed —
/// iterates, traces, stats — by construction.
BatchRunResult run_single(DistMethod method, const DistLayout& layout,
                          const TenantSpec& spec, const DistRunOptions& opt) {
  DistRunOptions sopt = opt;
  if (spec.stop_at_residual > 0.0) {
    sopt.stop_at_residual = spec.stop_at_residual;
  }
  DistRunResult solo = run_distributed(method, layout, spec.b, spec.x0, sopt);

  BatchRunResult out;
  out.method = solo.method;
  out.num_ranks = solo.num_ranks;
  out.n = solo.n;
  out.batch = 1;
  out.backend = solo.backend;
  out.num_threads = solo.num_threads;
  out.wall_seconds = solo.wall_seconds;
  out.comm_totals = solo.comm_totals;
  out.model_time = solo.model_time.empty() ? 0.0 : solo.model_time.back();
  out.steps_taken = static_cast<index_t>(solo.steps_taken());
  if (solo.async_totals) out.epochs = solo.async_totals->epochs;
  out.trace_log = solo.trace_log;

  TenantResult t;
  t.residual_norm = solo.residual_norm;
  t.steps = static_cast<index_t>(solo.steps_taken());
  t.final_residual =
      solo.residual_norm.empty() ? 0.0 : solo.residual_norm.back();
  t.converged = sopt.stop_at_residual > 0.0 &&
                t.final_residual <= sopt.stop_at_residual;
  t.final_x = solo.final_x;
  t.relaxations = solo.relaxations.empty()
                      ? 0
                      : static_cast<std::uint64_t>(solo.relaxations.back());
  t.wire_records = solo.comm_totals.msgs_logical;
  // Recover payload doubles from the modeled byte total (every message is
  // charged header + 8 bytes per double — simmpi::message_bytes).
  t.wire_doubles = (solo.comm_totals.bytes -
                    simmpi::kMessageHeaderBytes * solo.comm_totals.msgs) /
                   8;
  out.tenants.push_back(std::move(t));
  out.solo = std::move(solo);
  return out;
}

}  // namespace

BatchRunResult run_distributed_batch(DistMethod method,
                                     std::span<const DistLayout* const> layouts,
                                     std::span<const TenantSpec> specs,
                                     const DistRunOptions& opt) {
  DSOUTH_CHECK_MSG(!specs.empty(), "batched run needs at least one tenant");
  if (specs.size() == 1) {
    DSOUTH_CHECK(layouts.size() == 1 && layouts[0] != nullptr);
    return run_single(method, *layouts[0], specs[0], opt);
  }
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
  // solo run.
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

  // --- Shared-epoch scheduling state. All per-rank phase scratch is
  // per-slot (the SPMD discipline): a rank phase touches only
  // rank_sets[p] and rejected_per_rank[p].
  std::vector<char> active(batch, 1);
  std::vector<int> active_ids;
  std::vector<std::vector<wire::ChannelSet*>> rank_sets(
      static_cast<std::size_t>(num_ranks));
  std::vector<std::uint64_t> rejected_per_rank(
      static_cast<std::size_t>(num_ranks), 0);

  // Demultiplexing absorb: every window payload is a tenant frame; walk
  // it and hand each entry to its tenant's ordinary absorb path — the
  // per-tenant record streams (and so the per-tenant floating-point
  // schedules) are exactly the solo ones. Under fault injection a frame
  // that fails structural validation (tenant ids included) is rejected
  // and counted; entries already dispatched stay applied (each rides its
  // own sequenced envelope, so per-tenant idempotence covers the partial
  // application). Without faults a malformed frame is a bug and throws.
  const auto demux_absorb = [&](simmpi::RankContext& ctx, int p) {
    const RankData& rd = layout.rank(p);
    for (const auto& msg : ctx.window()) {
      const int nbi = rd.neighbor_index(msg.source);
      DSOUTH_CHECK_MSG(nbi >= 0, "message from non-neighbor " << msg.source);
      try {
        wire::for_each_tenant(
            msg.payload, batch, [&](const wire::TenantEntry& e) {
              h.solver(static_cast<std::size_t>(e.tenant))
                  .absorb_payload(ctx, p, static_cast<std::size_t>(nbi),
                                  e.body);
            });
      } catch (const wire::DecodeError&) {
        if (!h.fault_schedule()) throw;
        ++rejected_per_rank[static_cast<std::size_t>(p)];
      }
    }
    // One absorb event per rank for the shared window — frames are shared
    // wire, not any single tenant's traffic.
    h.solver().trace_absorb(ctx);
    ctx.consume();
  };

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

  compute_norms();
  for (std::size_t t = 0; t < batch; ++t) {
    result.tenants[t].residual_norm.push_back(rn[t]);
    if (target_of(t) > 0.0 && rn[t] <= target_of(t)) {
      active[t] = 0;
      result.tenants[t].converged = true;
    }
  }

  for (index_t k = 0; k < opt.max_parallel_steps; ++k) {
    active_ids.clear();
    for (std::size_t t = 0; t < batch; ++t) {
      if (active[t]) active_ids.push_back(static_cast<int>(t));
    }
    if (active_ids.empty()) break;
    for (auto& sets : rank_sets) sets.clear();
    for (int t : active_ids) {
      for (int p = 0; p < num_ranks; ++p) {
        rank_sets[static_cast<std::size_t>(p)].push_back(
            &h.solver(static_cast<std::size_t>(t)).channel(p));
      }
    }

    util::Stopwatch wall;
    for (int t : active_ids) {
      h.solver(static_cast<std::size_t>(t)).begin_step();
    }
    if (rt.async_delivery()) {
      // Event-driven: one fused shared epoch — demux whatever matured,
      // every scheduled tenant's relax-on-arrival send, ship, fence. Every
      // phase runs through for_each_live_rank, so dead ranks go silent
      // exactly as in a solo run.
      for_each_live_rank(
          h.backend(), rt, [&](simmpi::RankContext& ctx, int p) {
            demux_absorb(ctx, p);
            for (int t : active_ids) {
              h.solver(static_cast<std::size_t>(t)).rank_async_send(ctx, p);
            }
            wire::ChannelSet::ship_batch(
                ctx, rank_sets[static_cast<std::size_t>(p)], active_ids);
          });
      rt.fence();
    } else {
      const int epochs =
          h.solver(static_cast<std::size_t>(active_ids.front()))
              .step_epochs();
      for (int e = 0; e < epochs; ++e) {
        for_each_live_rank(
            h.backend(), rt, [&](simmpi::RankContext& ctx, int p) {
              for (int t : active_ids) {
                h.solver(static_cast<std::size_t>(t)).rank_send(e, ctx, p);
              }
              wire::ChannelSet::ship_batch(
                  ctx, rank_sets[static_cast<std::size_t>(p)], active_ids);
            });
        rt.fence();
        for_each_live_rank(h.backend(), rt,
                           [&](simmpi::RankContext& ctx, int p) {
                             demux_absorb(ctx, p);
                           });
      }
    }
    result.wall_seconds += wall.seconds();
    ++result.steps_taken;

    compute_norms();
    for (int t : active_ids) {
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
    rt.drain_delayed();
    for_each_live_rank(
        h.backend(), rt,
        [&](simmpi::RankContext& ctx, int p) { demux_absorb(ctx, p); });
    compute_norms();
  }

  for (std::size_t t = 0; t < batch; ++t) {
    result.tenants[t].final_residual = rn[t];
    result.tenants[t].final_x = h.solver(t).gather_x();
    result.tenants[t].wire_records = rt.stats().tenant_records(t);
    result.tenants[t].wire_doubles = rt.stats().tenant_doubles(t);
  }
  for (std::uint64_t r : rejected_per_rank) result.frames_rejected += r;
  result.model_time = rt.model_time_seconds();
  result.epochs = rt.epochs_completed();
  result.comm_totals = h.comm_totals();
  result.trace_log = h.finish();
  return result;
}

}  // namespace dsouth::dist
