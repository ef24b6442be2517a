/// Regenerates **Table 4** of the paper: mean modeled wall-clock time and
/// mean communication cost *per parallel step* over 50 steps at 8192
/// simulated ranks, for Block Jacobi / Parallel Southwell / Distributed
/// Southwell. This is the cost view relevant to multigrid smoothing and
/// preconditioning, where only a few sweeps are taken; the paper's
/// ordering is BJ > PS > DS on both metrics.

#include <iostream>

#include "support/bench_support.hpp"

namespace dsouth::bench {
namespace {

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto procs = static_cast<index_t>(args.get_int_or("procs", 8192));
  const double size_factor = args.get_double_or("size_factor", 1.0);
  const auto matrices = select_matrices(args);
  TraceCapture capture(args);
  BenchRecorder record("table4", args);
  auto opt = default_run_options();
  apply_backend_args(args, opt);
  capture.apply(opt);
  reject_unread_args(args);

  print_header("Table 4 — per-parallel-step cost over 50 steps",
               "paper Table 4",
               "mean over 50 parallel steps, P=" + std::to_string(procs));

  util::Table table({"Matrix", "t/step:BJ", "t/step:PS", "t/step:DS",
                     "comm/step:BJ", "comm/step:PS", "comm/step:DS"});
  util::CsvWriter csv(csv_path("table4_per_step.csv"),
                      {"matrix", "method", "mean_step_time",
                       "mean_step_comm", "mean_active_fraction"});

  for (const auto& name : matrices) {
    auto problem = make_dist_problem(name, size_factor);
    auto runs = run_three_methods(problem, procs, opt);
    const dist::DistRunResult* results[3] = {&runs.bj, &runs.ps, &runs.ds};
    for (const auto* r : results) {
      capture.add_run(name + " " + r->method, *r);
      record.add_run(name + " " + r->method, name, *r);
    }
    table.row().cell(name);
    for (const auto* r : results) table.cell(r->mean_step_time() * 1e3, 4);
    for (const auto* r : results) table.cell(r->mean_step_comm(), 3);
    for (const auto* r : results) {
      csv.write_row(std::vector<std::string>{
          name, r->method, util::format_double(r->mean_step_time(), 9),
          util::format_double(r->mean_step_comm(), 6),
          util::format_double(r->mean_active_fraction(), 6)});
    }
    std::cerr << "  [" << name << "] done\n";
  }
  std::cout << "Time per step in milliseconds (model).\n\n";
  table.print(std::cout);
  std::cout << "\nCSV: " << csv.path() << "\n";
  return 0;
}

}  // namespace
}  // namespace dsouth::bench

int main(int argc, char** argv) { return dsouth::bench::run(argc, argv); }
