/// Related-work bench (paper §5): the Southwell-family variants the paper
/// discusses, run on the small FEM problem of Figures 2/5 so the numbers
/// sit on the same axis:
///   - Rüde's sequential adaptive relaxation (active set + significance)
///   - Rüde's simultaneous adaptive relaxation (threshold θ)
///   - greedy multiplicative Schwarz (Ref. [10]) at block level, compared
///     against Block Jacobi's all-blocks-per-step policy.
/// Plus Sequential Southwell and scalar Distributed Southwell as anchors.

#include <iostream>

#include "core/adaptive_relaxation.hpp"
#include "core/classic.hpp"
#include "core/dist_southwell_scalar.hpp"
#include "core/southwell.hpp"
#include "dist/greedy_schwarz.hpp"
#include "sparse/proxy_suite.hpp"
#include "sparse/vec.hpp"
#include "support/bench_support.hpp"
#include "util/rng.hpp"

namespace dsouth::bench {
namespace {

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto sweeps = static_cast<index_t>(args.get_int_or("sweeps", 3));
  const auto procs = static_cast<index_t>(args.get_int_or("procs", 64));
  TraceCapture capture(args);
  BenchRecorder record("related_work", args);
  reject_unread_args(args);

  auto fem = sparse::make_small_fem_problem();
  const index_t n = fem.a.rows();
  print_header("Related work — the paper's §5 method family",
               "context for §5 (no direct paper artifact)",
               "small FEM problem (n=" + std::to_string(n) +
                   "), same setup as Figures 2/5");

  std::vector<value_t> b(static_cast<std::size_t>(n));
  util::Rng rng(0xF162ULL);  // identical RHS to the Figure 2/5 benches
  rng.fill_uniform(b, -1.0, 1.0);
  sparse::scale(1.0 / sparse::norm2(b), b);
  std::vector<value_t> x0(b.size(), 0.0);

  core::ScalarRunOptions sopt;
  sopt.max_sweeps = sweeps;
  auto sw = core::run_sequential_southwell(fem.a, b, x0, sopt);
  core::DistSouthwellScalarOptions dopt;
  dopt.base.max_sweeps = sweeps;
  auto ds = core::run_distributed_southwell_scalar(fem.a, b, x0, dopt);

  core::SequentialAdaptiveOptions aopt;
  aopt.base.max_sweeps = sweeps;
  aopt.significance = 1e-3;
  auto seq_adapt =
      core::run_sequential_adaptive_relaxation(fem.a, b, x0, aopt);

  util::Table table({"Method", "to 0.8", "to 0.6", "to 0.4",
                     "relaxations", "parallel steps"});
  auto row = [&](const char* name, const core::ConvergenceHistory& h) {
    table.row().cell(name);
    for (double target : {0.8, 0.6, 0.4}) {
      table.cell(value_or_dagger(h.relaxations_to_reach(target), 0));
    }
    table.cell(static_cast<std::size_t>(h.total_relaxations()));
    table.cell(h.step_marks.empty()
                   ? std::string("(sequential)")
                   : std::to_string(h.num_parallel_steps()));
  };
  row("Sequential Southwell", sw);
  row("Dist SW (scalar)", ds.history);
  row("Seq. adaptive (Ruede)", seq_adapt);
  for (double frac : {0.25, 0.5, 0.75}) {
    core::SimultaneousAdaptiveOptions mopt;
    mopt.base.max_sweeps = sweeps;
    mopt.threshold_fraction = frac;
    auto h = core::run_simultaneous_adaptive_relaxation(fem.a, b, x0, mopt);
    std::string label =
        "Sim. adaptive theta=" + util::format_double(frac, 2);
    table.row().cell(label);
    for (double target : {0.8, 0.6, 0.4}) {
      table.cell(value_or_dagger(h.relaxations_to_reach(target), 0));
    }
    table.cell(static_cast<std::size_t>(h.total_relaxations()));
    table.cell(std::to_string(h.num_parallel_steps()));
  }
  table.print(std::cout);

  // Block level: greedy multiplicative Schwarz vs Block Jacobi, on the
  // same problem partitioned into subdomains.
  std::cout << "\nBlock level (P=" << procs
            << " subdomains, block relaxations to reach ||r||=0.1):\n";
  auto part = partition_for(fem.a, procs);
  dist::DistLayout layout(fem.a, part);
  dist::GreedySchwarzOptions gopt;
  gopt.max_block_relaxations = 100000;
  gopt.target_residual = 0.1;
  auto greedy = dist::run_greedy_schwarz(layout, b, x0, gopt);
  dist::DistRunOptions bopt;
  bopt.max_parallel_steps = 1000;
  bopt.stop_at_residual = 0.1;
  capture.apply(bopt);
  auto bj = dist::run_distributed(dist::DistMethod::kBlockJacobi, layout, b,
                                  x0, bopt);
  auto dsb = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                   layout, b, x0, bopt);
  capture.add_run("fem BJ", bj);
  capture.add_run("fem DS", dsb);
  record.add_run("fem BJ", "fem", bj);
  record.add_run("fem DS", "fem", dsb);
  util::Table blocks({"Method", "block relaxations", "parallel steps"});
  blocks.row()
      .cell("greedy Schwarz (Ref. 10)")
      .cell(greedy.relaxed_rank.size())
      .cell(std::string("(sequential)"));
  blocks.row()
      .cell("Block Jacobi")
      .cell(static_cast<std::size_t>(bj.steps_taken()) *
            static_cast<std::size_t>(procs))
      .cell(bj.steps_taken());
  std::size_t ds_blocks = 0;
  for (index_t a_count : dsb.active_ranks) {
    ds_blocks += static_cast<std::size_t>(a_count);
  }
  blocks.row()
      .cell("Distributed Southwell")
      .cell(ds_blocks)
      .cell(dsb.steps_taken());
  blocks.print(std::cout);
  std::cout << "\nGreedy Schwarz anchors the block-relaxation economy the "
               "same way Sequential Southwell anchors the scalar one; "
               "Distributed Southwell approaches it while remaining "
               "parallel.\n";
  return 0;
}

}  // namespace
}  // namespace dsouth::bench

int main(int argc, char** argv) { return dsouth::bench::run(argc, argv); }
