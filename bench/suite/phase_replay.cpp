#include "phase_replay.hpp"

#include <bit>
#include <optional>

#include "dist/harness.hpp"
#include "util/error.hpp"

namespace dsouth::suite {

ReplayRun replay(const dist::DistLayout& layout, std::span<const value_t> b,
                 std::span<const value_t> x0, const dist::DistRunOptions& opt,
                 Spans& spans, int solve_id) {
  DSOUTH_CHECK_MSG(opt.faults.kills.empty() && opt.faults.random_kills
                                                       .probability == 0.0,
                   "the phase-table replay does not recover from rank kills");
  DSOUTH_CHECK_MSG(!opt.watchdog.enabled && opt.divergence_abort == 0.0,
                   "the phase-table replay implements only stop_at_residual");
  DSOUTH_CHECK(opt.backend == simmpi::BackendKind::kSequential);

  ReplayRun out;
  auto& result = out.result;
  const int nranks = layout.num_ranks();
  const int root = spans.begin("dist.solve", solve_id);
  std::optional<dist::RunHarness> harness;
  {
    const Scope s(&spans, "dist.harness_init");
    harness.emplace(dist::DistMethod::kDistributedSouthwell, layout, b, x0,
                    opt);
  }
  dist::RunHarness& h = *harness;
  simmpi::Runtime& rt = h.runtime();
  dist::DistStationarySolver& solver = h.solver();
  {
    const Scope s(&spans, "dist.norm");
    h.init_result(result);
    h.record_state(result);
  }

  // Dead ranks are skipped exactly as DistStationarySolver::for_each_rank
  // does (constant-false without kills).
  auto each_rank = [&](const char* name, auto&& phase) {
    const Scope s(&spans, name);
    for (int p = 0; p < nranks; ++p) {
      if (rt.rank_dead(p)) continue;
      simmpi::RankContext ctx(rt, p);
      phase(ctx, p);
    }
  };

  index_t total_relax = 0;
  for (index_t k = 0; k < opt.max_parallel_steps; ++k) {
    dist::DistStepStats stats;
    {
      const Scope step(&spans, "dist.step");
      {
        const Scope s(&spans, "dist.begin_step");
        solver.begin_step();
      }
      if (rt.async_delivery()) {
        // One fused epoch; absorb and send alternate per rank.
        for (int p = 0; p < nranks; ++p) {
          if (rt.rank_dead(p)) continue;
          simmpi::RankContext ctx(rt, p);
          {
            const Scope s(&spans, "dist.absorb");
            solver.rank_absorb(ctx, p);
          }
          const Scope s(&spans, "dist.send");
          solver.rank_async_send(ctx, p);
        }
        const Scope s(&spans, "simmpi.fence");
        rt.fence();
      } else {
        for (int e = 0; e < solver.step_epochs(); ++e) {
          each_rank("dist.send", [&](simmpi::RankContext& ctx, int p) {
            solver.rank_send(e, ctx, p);
          });
          {
            const Scope s(&spans, "simmpi.fence");
            rt.fence();
          }
          each_rank("dist.absorb", [&](simmpi::RankContext& ctx, int p) {
            solver.rank_absorb(ctx, p);
          });
        }
      }
      const Scope s(&spans, "dist.merge");
      stats = solver.merge_rank_stats();
    }
    total_relax += stats.relaxations;
    result.active_ranks.push_back(stats.active_ranks);
    {
      const Scope s(&spans, "dist.norm");
      h.record_state(result);
    }
    result.relaxations.back() = static_cast<double>(total_relax);
    if (opt.stop_at_residual > 0.0 &&
        result.residual_norm.back() <= opt.stop_at_residual) {
      break;
    }
  }
  {
    const Scope s(&spans, "simmpi.drain");
    h.drain_if_async();
  }
  {
    const Scope s(&spans, "dist.gather");
    result.final_x = solver.gather_x();
  }
  {
    const Scope s(&spans, "dist.finish");
    h.fill_totals(result);
    h.finish(result);
  }
  spans.end(root);

  const Scope s(&spans, "elastic.capture");
  out.epochs = rt.epochs_completed();
  out.resilience = solver.resilience_stats();
  out.state.num_ranks = nranks;
  out.state.method = static_cast<int>(dist::DistMethod::kDistributedSouthwell);
  out.state.epoch = out.epochs;
  out.state.step = static_cast<index_t>(result.steps_taken());
  out.state.runtime = rt.capture_state();
  out.state.solver = solver.capture_state();
  return out;
}

namespace {

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string first_difference(const dist::DistRunResult& a,
                             const dist::DistRunResult& b) {
  if (!same_bits(a.residual_norm, b.residual_norm)) return "residual_norm";
  if (!same_bits(a.model_time, b.model_time)) return "model_time";
  if (!same_bits(a.comm_cost, b.comm_cost)) return "comm_cost";
  if (!same_bits(a.solve_comm, b.solve_comm)) return "solve_comm";
  if (!same_bits(a.res_comm, b.res_comm)) return "res_comm";
  if (!same_bits(a.relaxations, b.relaxations)) return "relaxations";
  if (a.active_ranks != b.active_ranks) return "active_ranks";
  if (!same_bits(a.final_x, b.final_x)) return "final_x";
  const auto& ca = a.comm_totals;
  const auto& cb = b.comm_totals;
  if (ca.msgs != cb.msgs || ca.bytes != cb.bytes ||
      ca.msgs_solve != cb.msgs_solve || ca.msgs_residual != cb.msgs_residual ||
      ca.msgs_other != cb.msgs_other || ca.msgs_logical != cb.msgs_logical) {
    return "comm_totals";
  }
  if (a.async_totals.has_value() != b.async_totals.has_value() ||
      (a.async_totals &&
       (a.async_totals->delivered != b.async_totals->delivered ||
        a.async_totals->staleness_sum != b.async_totals->staleness_sum ||
        a.async_totals->epochs != b.async_totals->epochs))) {
    return "async_totals";
  }
  if (a.fault_summary.has_value() != b.fault_summary.has_value() ||
      (a.fault_summary &&
       (a.fault_summary->msgs_dropped != b.fault_summary->msgs_dropped ||
        a.fault_summary->rejected_stale != b.fault_summary->rejected_stale ||
        a.fault_summary->refreshes_sent != b.fault_summary->refreshes_sent))) {
    return "fault_summary";
  }
  return "";
}

}  // namespace dsouth::suite
