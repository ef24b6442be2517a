/// Host-side P-scaling bench (ROADMAP: "push P into the hundreds"). Where
/// the paper's figures sweep *modeled* time, this bench sweeps the
/// simulated rank count P on one Section-5 proxy matrix and measures what
/// the **host** pays per run: solve-loop wall time, trace-analysis wall
/// time, and host allocations (src/prof alloc hook) — the curves that
/// expose superlinear-in-P costs in the Runtime/analysis layers long
/// before they dominate a laptop run. Two products:
///
///  * advisory curves (bench_results/scaling_host.csv + ascii plots):
///    solve wall-seconds vs P, analysis wall-seconds vs P, analysis
///    allocations/bytes vs P;
///  * a deterministic record (-json, schema dsouth.bench_record) whose
///    per-run `allocs_per_step` field gates the allocation-free warm
///    steady state in CI. It is measured on a dedicated sequential,
///    untraced solver window, so it is bit-identical whatever `-backend`
///    the instrumented run used.
///
/// Supports the shared `-trace/-json` capture flags; tracing is
/// force-enabled internally because the analysis sweep needs the event
/// log (this never changes deterministic results).

#include <cstdint>
#include <iostream>

#include "analysis/render.hpp"
#include "dist/harness.hpp"
#include "prof/prof.hpp"
#include "support/bench_support.hpp"
#include "util/ascii_plot.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace dsouth::bench {
namespace {

/// Deterministic allocations per warm solver step: warm up, then count
/// operator-new calls across a measured window of direct step() calls.
/// Sequential backend, no tracer — the count is a pure function of the
/// solver code path (expected 0: the warm steady state is allocation-free,
/// tests/test_wire.cpp), so the CI gate can require it bit-exactly even
/// when the instrumented run above used `-backend threads`. Returns 0 when
/// the alloc hook is not linked in.
std::uint64_t measure_allocs_per_step(const DistProblem& problem,
                                      const graph::Partition& part,
                                      const dist::DistRunOptions& base) {
  dist::DistLayout layout(problem.a, part);
  // Only the machine model and the solver switches carry over: every
  // attachment the harness could add (tracer, faults, async delivery,
  // node topology, resilience) stays off.
  dist::DistRunOptions opt;
  opt.machine = base.machine;
  opt.ds = base.ds;
  opt.ps_explicit_residual_updates = base.ps_explicit_residual_updates;
  dist::RunHarness h(dist::DistMethod::kDistributedSouthwell, layout,
                     problem.b, problem.x0, opt);
  dist::DistStationarySolver* solver = &h.solver();
  // DS's active and correction sets vary step to step, so pooled buffers
  // keep growing for tens of steps (tests/test_wire.cpp warms 60); warm
  // long enough that the window sees the allocation-free steady state.
  constexpr int kWarmupSteps = 60;
  constexpr std::uint64_t kMeasuredSteps = 10;
  for (int i = 0; i < kWarmupSteps; ++i) solver->step();
  const std::uint64_t before = prof::alloc_hook::allocations();
  for (std::uint64_t i = 0; i < kMeasuredSteps; ++i) solver->step();
  return (prof::alloc_hook::allocations() - before) / kMeasuredSteps;
}

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const std::string matrix = args.get_or("matrix", "bone010p");
  const double size_factor = args.get_double_or("size_factor", 1.0);
  auto procs = args.get_int_list_or("procs", {16, 32, 64, 128, 256});
  const auto analysis_reps =
      static_cast<int>(args.get_int_or("analysis-reps", 5));
  DSOUTH_CHECK_MSG(analysis_reps >= 1, "-analysis-reps must be >= 1");

  auto base_opt = default_run_options();
  apply_backend_args(args, base_opt);
  base_opt.max_parallel_steps = static_cast<index_t>(
      args.get_int_or("steps", base_opt.max_parallel_steps));
  TraceCapture capture(args);
  capture.apply(base_opt);
  base_opt.trace.enabled = true;  // the analysis sweep needs the event log
  BenchRecorder record("scaling", args);
  reject_unread_args(args);

  print_header(
      "Host scaling — wall time and allocations vs P",
      "no paper artifact (host-cost observability; docs/observability.md)",
      "DS on " + matrix + ", P in {16..256}, " +
          std::to_string(base_opt.max_parallel_steps) + " parallel steps");

  auto problem = make_dist_problem(matrix, size_factor);
  util::CsvWriter csv(
      csv_path("scaling_host.csv"),
      {"matrix", "procs", "method", "steps", "solve_wall_seconds",
       "analysis_seconds", "analysis_allocs", "analysis_bytes",
       "allocs_per_step", "msgs_total", "backend", "threads"});
  util::Table table({"P", "solve s", "analysis s", "analysis allocs",
                     "analysis KB", "allocs/step"});
  std::vector<util::PlotSeries> wall_plot(2);
  wall_plot[0].name = "solve";
  wall_plot[1].name = "analysis";
  std::vector<util::PlotSeries> alloc_plot(1);
  alloc_plot[0].name = "analysis allocs";

  analysis::AnalyzeOptions aopt;
  aopt.model = base_opt.machine;

  for (auto p64 : procs) {
    const auto p = static_cast<index_t>(p64);
    auto part = partition_for(problem.a, p);
    dist::DistLayout layout(problem.a, part);
    auto res = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                     layout, problem.b, problem.x0, base_opt);
    const std::string label = matrix + " P=" + std::to_string(p) + " DS";

    // Trace-analysis cost at this P (averaged over -analysis-reps): wall
    // seconds plus host allocations, the two curves a superlinear comm-
    // matrix build shows up in first.
    double analysis_seconds = 0.0;
    std::uint64_t analysis_allocs = 0;
    std::uint64_t analysis_bytes = 0;
    std::size_t hot_pairs = 0;
    {
      const auto runt = analysis::from_trace_log(*res.trace_log, label);
      const std::uint64_t allocs0 = prof::alloc_hook::allocations();
      const std::uint64_t bytes0 = prof::alloc_hook::bytes();
      util::Stopwatch sw;
      for (int rep = 0; rep < analysis_reps; ++rep) {
        hot_pairs = analysis::analyze_run(runt, aopt).comm.hot_pairs.size();
      }
      const auto reps = static_cast<std::uint64_t>(analysis_reps);
      analysis_seconds = sw.seconds() / static_cast<double>(reps);
      analysis_allocs = (prof::alloc_hook::allocations() - allocs0) / reps;
      analysis_bytes = (prof::alloc_hook::bytes() - bytes0) / reps;
    }
    (void)hot_pairs;

    const std::uint64_t allocs_per_step =
        measure_allocs_per_step(problem, part, base_opt);

    capture.add_run(label, res);
    record.add_run(label, matrix, res,
                   {{"allocs_per_step", allocs_per_step}});

    table.row()
        .cell(static_cast<std::size_t>(p))
        .cell(util::format_double(res.wall_seconds, 4))
        .cell(util::format_double(analysis_seconds, 5))
        .cell(static_cast<std::size_t>(analysis_allocs))
        .cell(util::format_double(
            static_cast<double>(analysis_bytes) / 1024.0, 1))
        .cell(static_cast<std::size_t>(allocs_per_step));
    csv.write_row(std::vector<std::string>{
        matrix, std::to_string(p), "DistributedSouthwell",
        std::to_string(res.steps_taken()),
        util::format_double(res.wall_seconds, 6),
        util::format_double(analysis_seconds, 7),
        std::to_string(analysis_allocs), std::to_string(analysis_bytes),
        std::to_string(allocs_per_step),
        std::to_string(res.comm_totals.msgs), res.backend,
        std::to_string(res.num_threads)});
    const auto pd = static_cast<double>(p);
    wall_plot[0].x.push_back(pd);
    wall_plot[0].y.push_back(res.wall_seconds);
    wall_plot[1].x.push_back(pd);
    wall_plot[1].y.push_back(analysis_seconds);
    alloc_plot[0].x.push_back(pd);
    alloc_plot[0].y.push_back(static_cast<double>(analysis_allocs));
    std::cerr << "  [" << matrix << " P=" << p << "] done\n";
  }
  table.print(std::cout);
  if (!prof::alloc_hook::available()) {
    std::cout << "(alloc hook not linked: allocation columns are 0)\n";
  }

  util::PlotOptions popts;
  popts.height = 12;
  popts.log_x = true;
  popts.x_label = "P (log)";
  popts.y_label = "host wall seconds";
  util::render_plot(std::cout, wall_plot, popts);
  popts.y_label = "analysis allocations";
  util::render_plot(std::cout, alloc_plot, popts);
  std::cout << "CSV: " << csv.path() << "\n";
  return 0;
}

}  // namespace
}  // namespace dsouth::bench

int main(int argc, char** argv) { return dsouth::bench::run(argc, argv); }
