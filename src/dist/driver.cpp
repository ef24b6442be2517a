#include "dist/driver.hpp"

#include <cmath>

#include "dist/block_jacobi.hpp"
#include "dist/harness.hpp"
#include "dist/multicolor_block_gs.hpp"
#include "dist/parallel_southwell.hpp"
#include "simmpi/delivery.hpp"
#include "util/error.hpp"
#include "util/interp.hpp"

namespace dsouth::dist {

const char* method_name(DistMethod m) {
  switch (m) {
    case DistMethod::kBlockJacobi:
      return "BlockJacobi";
    case DistMethod::kParallelSouthwell:
      return "ParallelSouthwell";
    case DistMethod::kDistributedSouthwell:
      return "DistributedSouthwell";
    case DistMethod::kMulticolorBlockGs:
      return "MulticolorBlockGs";
  }
  return "?";
}

const char* method_abbrev(DistMethod m) {
  switch (m) {
    case DistMethod::kBlockJacobi:
      return "BJ";
    case DistMethod::kParallelSouthwell:
      return "PS";
    case DistMethod::kDistributedSouthwell:
      return "DS";
    case DistMethod::kMulticolorBlockGs:
      return "MCBGS";
  }
  return "?";
}

std::optional<DistRunResult::AtTarget> DistRunResult::at_target(
    double target) const {
  auto crossing = util::first_crossing_log10(residual_norm, target);
  if (!crossing) return std::nullopt;
  AtTarget out;
  out.steps = *crossing;
  out.model_time = util::interpolate_series(model_time, *crossing);
  out.comm_cost = util::interpolate_series(comm_cost, *crossing);
  out.solve_comm = util::interpolate_series(solve_comm, *crossing);
  out.res_comm = util::interpolate_series(res_comm, *crossing);
  out.relaxations_per_n =
      util::interpolate_series(relaxations, *crossing) /
      static_cast<double>(n);
  // Mean active fraction over the steps leading to the crossing.
  const auto upto = std::min<std::size_t>(
      active_ranks.size(),
      static_cast<std::size_t>(std::ceil(std::max(1.0, *crossing))));
  double sum = 0.0;
  for (std::size_t k = 0; k < upto; ++k) {
    sum += static_cast<double>(active_ranks[k]);
  }
  out.active_fraction =
      upto == 0 ? 0.0
                : sum / (static_cast<double>(upto) *
                         static_cast<double>(num_ranks));
  return out;
}

double DistRunResult::mean_step_time() const {
  if (steps_taken() == 0) return 0.0;
  return model_time.back() / static_cast<double>(steps_taken());
}

double DistRunResult::mean_step_comm() const {
  if (steps_taken() == 0) return 0.0;
  return comm_cost.back() / static_cast<double>(steps_taken());
}

double DistRunResult::mean_active_fraction() const {
  if (steps_taken() == 0) return 0.0;
  double sum = 0.0;
  for (index_t a : active_ranks) sum += static_cast<double>(a);
  return sum / (static_cast<double>(steps_taken()) *
                static_cast<double>(num_ranks));
}

namespace {

/// The DS option rules: a combination that would silently do nothing (or
/// mean "off" by accident) is refused with both options named.
void check_ds_options(const DistRunOptions& opt) {
  const DistributedSouthwellOptions& ds = opt.ds;
  DSOUTH_CHECK_MSG(ds.heartbeat_period >= 0,
                   "ds.heartbeat_period must be >= 0, got "
                       << ds.heartbeat_period);
  DSOUTH_CHECK_MSG(ds.send_threshold >= 0.0,
                   "ds.send_threshold must be >= 0, got "
                       << ds.send_threshold);
  DSOUTH_CHECK_MSG(ds.heartbeat_period == 0 || ds.enable_corrections,
                   "ds.heartbeat_period > 0 needs ds.enable_corrections: "
                   "the heartbeat is sent from Epoch B's correction phase");
  // Deferral accumulates unsent Δx, which contradicts the resilient
  // absolute-x encoding (every message must carry the full boundary
  // state). Async delivery turns resilience on by itself.
  DSOUTH_CHECK_MSG(
      ds.send_threshold == 0.0 || !(opt.resilience.enabled || opt.async),
      "ds.send_threshold > 0 is incompatible with "
          << (opt.resilience.enabled ? "resilience.enabled"
                                     : "async, which enables resilience")
          << " (deferred sends would ship partial boundary state)");
}

}  // namespace

std::unique_ptr<DistStationarySolver> make_dist_solver(
    DistMethod method, const DistLayout& layout, simmpi::Runtime& rt,
    std::span<const value_t> b, std::span<const value_t> x0,
    const DistRunOptions& opt) {
  if (method == DistMethod::kDistributedSouthwell) check_ds_options(opt);
  switch (method) {
    case DistMethod::kBlockJacobi:
      return std::make_unique<BlockJacobi>(layout, rt, b, x0);
    case DistMethod::kParallelSouthwell:
      return std::make_unique<ParallelSouthwell>(
          layout, rt, b, x0, opt.ps_explicit_residual_updates);
    case DistMethod::kDistributedSouthwell:
      return std::make_unique<DistributedSouthwell>(layout, rt, b, x0,
                                                    opt.ds);
    case DistMethod::kMulticolorBlockGs:
      return std::make_unique<MulticolorBlockGs>(layout, rt, b, x0);
  }
  DSOUTH_CHECK(false);
  return nullptr;
}

DistRunResult run_distributed(DistMethod method, const DistLayout& layout,
                              std::span<const value_t> b,
                              std::span<const value_t> x0,
                              const DistRunOptions& opt) {
  // All construction and attachment lives in RunHarness (harness.hpp) so
  // the elastic driver assembles the identical stack; this function keeps
  // only the stepping loop and its observer-side stop rules.
  RunHarness h(method, layout, b, x0, opt);

  DistRunResult result;
  h.init_result(result);
  h.record_state(result);

  StopRules stop_rules(opt, result);
  for (index_t k = 0; k < opt.max_parallel_steps; ++k) {
    h.step_and_record(result);
    if (stop_rules.stop(result)) break;
  }
  h.drain_if_async();
  result.final_x = h.solver().gather_x();
  h.fill_totals(result);
  h.finish(result);
  return result;
}

DistRunResult run_distributed(DistMethod method, const CsrMatrix& a,
                              const graph::Partition& partition,
                              std::span<const value_t> b,
                              std::span<const value_t> x0,
                              const DistRunOptions& opt) {
  DistLayout layout(a, partition);
  return run_distributed(method, layout, b, x0, opt);
}

}  // namespace dsouth::dist
