#include "dist/harness.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "wire/comm_plan.hpp"

namespace dsouth::dist {

namespace {

/// Layouts driven by one runtime must agree on everything the shared
/// schedule and the shared wire depend on: rank count, row distribution,
/// and the exact communication structure (peer lists and directed channel
/// widths). The proxy-suite tenant sweeps perturb only numerical values,
/// never the sparsity, so layouts built from one partition always pass.
void check_layout_compatible(const DistLayout& a, const DistLayout& b) {
  DSOUTH_CHECK_MSG(a.num_ranks() == b.num_ranks(),
                   "tenant layouts disagree on rank count");
  DSOUTH_CHECK_MSG(a.global_rows() == b.global_rows(),
                   "tenant layouts disagree on system size");
  for (int p = 0; p < a.num_ranks(); ++p) {
    const auto pa = a.comm_plan().peers(p);
    const auto pb = b.comm_plan().peers(p);
    DSOUTH_CHECK_MSG(pa.size() == pb.size(),
                     "tenant layouts disagree on neighbor count of rank "
                         << p);
    for (std::size_t k = 0; k < pa.size(); ++k) {
      DSOUTH_CHECK_MSG(pa[k].rank == pb[k].rank &&
                           pa[k].send_width == pb[k].send_width &&
                           pa[k].recv_width == pb[k].recv_width,
                       "tenant layouts disagree on channel " << k
                                                             << " of rank "
                                                             << p);
    }
  }
}

const DistLayout& first_layout(std::span<const DistLayout* const> layouts) {
  DSOUTH_CHECK(!layouts.empty() && layouts[0] != nullptr);
  return *layouts[0];
}

}  // namespace

RunHarness::RunHarness(DistMethod method, const DistLayout& layout,
                       std::span<const value_t> b,
                       std::span<const value_t> x0,
                       const DistRunOptions& opt)
    : RunHarness(method, std::array<const DistLayout*, 1>{&layout},
                 std::array<TenantSpec, 1>{TenantSpec{b, x0}}, opt) {}

RunHarness::RunHarness(DistMethod method,
                       std::span<const DistLayout* const> layouts,
                       std::span<const TenantSpec> specs,
                       const DistRunOptions& opt)
    : opt_(&opt), rt_(first_layout(layouts).num_ranks(), opt.machine) {
  DSOUTH_CHECK_MSG(!specs.empty(), "a run needs at least one solver");
  DSOUTH_CHECK_MSG(layouts.size() == 1 || layouts.size() == specs.size(),
                   "pass one shared layout or one per solver");
  for (std::size_t i = 1; i < layouts.size(); ++i) {
    DSOUTH_CHECK(layouts[i] != nullptr);
    check_layout_compatible(*layouts[0], *layouts[i]);
  }
  const DistLayout& layout = *layouts[0];
  const int num_ranks = layout.num_ranks();
  const bool batched = specs.size() > 1;

  // Async delivery must be set before the solver is constructed (so every
  // step of the run sees one delivery mode).
  if (opt.async) {
    rt_.set_async_delivery({.seed = opt.async_seed,
                            .min_latency_epochs = opt.async_min_latency,
                            .max_latency_epochs = opt.async_max_latency,
                            .max_staleness = opt.max_staleness});
  }
  // Node-aware topology: the one place a run's rank -> node map is
  // resolved. Flat topologies (ranks_per_node == 1) degenerate to
  // "detached" inside the runtime, so attaching one is byte-identical to
  // not attaching.
  if (opt.ranks_per_node > 0) {
    const auto topo =
        simmpi::NodeTopology::ranks_per_node(num_ranks, opt.ranks_per_node);
    simmpi::NodeRoutingOptions nro;
    nro.route_via_leaders = opt.node_route;
    if (opt.node_route) {
      // The runtime sizes forward-frame bitmaps from the per-node-pair
      // channel counts.
      nro.pair_channel_counts =
          wire::node_pair_channel_counts(layout.comm_plan(), topo);
    }
    rt_.set_node_topology(topo, std::move(nro));
  }
  // The tracer must be attached before the solver is constructed so solver
  // ctors can register their metrics.
  if (opt.trace.enabled) {
    tracer_ = std::make_unique<trace::Tracer>(num_ranks);
    rt_.set_tracer(tracer_.get());
  }
  // A fault schedule is attached only for a nonzero plan, so the default
  // path makes no fault draws.
  if (opt.faults.any()) {
    fault_schedule_ =
        std::make_unique<faults::FaultSchedule>(opt.faults, num_ranks);
    rt_.set_fault_schedule(fault_schedule_.get());
  }
  if (batched) rt_.set_num_tenants(specs.size());
  backend_ = simmpi::make_backend(opt.backend, opt.num_threads);
  // MetricsRegistry registration is idempotent by name, so several solver
  // constructors share one set of metric slots.
  solvers_.reserve(specs.size());
  for (std::size_t t = 0; t < specs.size(); ++t) {
    const DistLayout& lt = layouts.size() == 1 ? layout : *layouts[t];
    solvers_.push_back(
        make_dist_solver(method, lt, rt_, specs[t].b, specs[t].x0, opt));
    solvers_.back()->set_backend(*backend_);
    // Batched tenants share one tenant frame per (peer, tag).
    if (batched) solvers_.back()->set_batch_staging(true);
  }
  // Async delivery forces the resilient receive path: maturation is
  // out-of-order by construction, and the seq-gated absolute-x encoding is
  // what keeps ghost caches and DS's Γ̃ bookkeeping correct under it.
  ResilienceOptions resilience = opt.resilience;
  if (opt.async) resilience.enabled = true;
  if (resilience.enabled) {
    for (auto& s : solvers_) s->set_resilience(resilience);
  }
}

RunHarness::~RunHarness() {
  // finish() normally detaches; cover early exits so the runtime never
  // outlives an attachment it doesn't own.
  if (tracer_) rt_.set_tracer(nullptr);
}

void RunHarness::init_result(DistRunResult& result) const {
  result.method = solvers_.front()->name();
  result.num_ranks = rt_.num_ranks();
  result.n = solvers_.front()->layout().global_rows();
  result.backend = backend_->name();
  result.num_threads = backend_->num_threads();
}

void RunHarness::record_state(DistRunResult& result) const {
  result.residual_norm.push_back(solvers_.front()->global_residual_norm());
  result.model_time.push_back(rt_.model_time_seconds());
  result.comm_cost.push_back(rt_.stats().comm_cost());
  result.solve_comm.push_back(rt_.stats().comm_cost(simmpi::MsgTag::kSolve));
  result.res_comm.push_back(rt_.stats().comm_cost(simmpi::MsgTag::kResidual));
  result.relaxations.push_back(
      result.relaxations.empty() ? 0.0 : result.relaxations.back());
}

void RunHarness::step_and_record(DistRunResult& result) {
  // Time the parallel step only — the observer-side recording below is
  // backend-independent bookkeeping.
  util::Stopwatch wall;
  const DistStepStats stats = solver().step();
  result.wall_seconds += wall.seconds();
  result.active_ranks.push_back(stats.active_ranks);
  record_state(result);
  result.relaxations.back() += static_cast<double>(stats.relaxations);
}

void RunHarness::drain_if_async() {
  if (!rt_.async_delivery()) return;
  // Gated on the runtime, not opt.async: staleness-0 async delivery
  // degenerates to bulk-synchronous delivery and must add nothing to the
  // trace.
  rt_.drain_delayed();
  solvers_.front()->absorb_all();
}

DistRunResult::CommTotals RunHarness::comm_totals() const {
  const simmpi::CommStats& cs = rt_.stats();
  DistRunResult::CommTotals ct;
  ct.msgs = cs.total_messages();
  ct.bytes = cs.total_bytes();
  ct.msgs_solve = cs.total_messages(simmpi::MsgTag::kSolve);
  ct.msgs_residual = cs.total_messages(simmpi::MsgTag::kResidual);
  ct.msgs_other = cs.total_messages(simmpi::MsgTag::kOther);
  ct.msgs_logical = cs.logical_messages();
  ct.msgs_logical_solve = cs.logical_messages(simmpi::MsgTag::kSolve);
  ct.msgs_logical_residual = cs.logical_messages(simmpi::MsgTag::kResidual);
  return ct;
}

void RunHarness::fill_totals(DistRunResult& result) const {
  const simmpi::CommStats& cs = rt_.stats();
  result.comm_totals = comm_totals();
  if (!result.model_time.empty()) {
    result.model_time.back() = rt_.model_time_seconds();
  }
  if (fault_schedule_) {
    FaultSummary fs;
    fs.msgs_dropped = cs.dropped_messages();
    fs.msgs_duplicated = cs.duplicated_messages();
    fs.msgs_corrupted = cs.corrupted_messages();
    fs.msgs_dead_dropped = cs.dead_dropped_messages();
    const ResilienceStats rs = solvers_.front()->resilience_stats();
    fs.rejected_corrupt = rs.rejected_corrupt;
    fs.rejected_stale = rs.rejected_stale;
    fs.refreshes_sent = rs.refreshes_sent;
    result.fault_summary = fs;
  }
  if (rt_.async_delivery()) {
    AsyncTotals at;
    at.delivered = cs.async_delivered();
    at.staleness_sum = cs.async_staleness_sum();
    at.staleness_max = cs.async_staleness_max();
    at.epochs = rt_.epochs_completed();
    result.async_totals = at;
  }
  if (rt_.node_topology()) {
    NodeTotals nt;
    nt.msgs_intra = cs.intra_messages();
    nt.bytes_intra = cs.intra_bytes();
    nt.msgs_inter = cs.inter_messages();
    nt.bytes_inter = cs.inter_bytes();
    nt.forward_frames = cs.forward_frames();
    nt.forwarded_records = cs.forwarded_records();
    result.node_totals = nt;
  }
}

std::shared_ptr<const trace::TraceLog> RunHarness::finish() {
  if (!tracer_) return nullptr;
  tracer_->flush();
  auto log = std::make_shared<const trace::TraceLog>(tracer_->take_log());
  rt_.set_tracer(nullptr);
  tracer_.reset();
  return log;
}

StopRules::StopRules(const DistRunOptions& opt, const DistRunResult& result)
    : opt_(&opt),
      r0_(result.residual_norm.front()),
      best_rn_(result.residual_norm.front()) {}

bool StopRules::stop(DistRunResult& result) {
  const double rn = result.residual_norm.back();
  const auto step = static_cast<index_t>(result.steps_taken());
  if (opt_->stop_at_residual > 0.0 && rn <= opt_->stop_at_residual) {
    return true;
  }
  if (opt_->divergence_abort > 0.0 && rn >= opt_->divergence_abort) {
    return true;
  }
  if (!opt_->watchdog.enabled) return false;
  // Observer-side divergence watchdog: a faulted run stops with a report
  // instead of hanging or overflowing.
  if (!std::isfinite(rn)) {
    result.watchdog = {true, "non-finite residual", step};
    return true;
  }
  if (rn > kWatchdogGrowthFactor * r0_) {
    result.watchdog = {true, "residual exceeded growth_factor x initial",
                       step};
    return true;
  }
  if (rn < best_rn_) {
    best_rn_ = rn;
    steps_since_best_ = 0;
  } else if (opt_->watchdog.stall_steps > 0 &&
             ++steps_since_best_ >= opt_->watchdog.stall_steps) {
    result.watchdog = {true, "residual stalled", step};
    return true;
  }
  return false;
}

void StopRules::rewind(const DistRunResult& result) {
  best_rn_ = r0_;
  for (double rn : result.residual_norm) best_rn_ = std::min(best_rn_, rn);
  steps_since_best_ = 0;
}

}  // namespace dsouth::dist
