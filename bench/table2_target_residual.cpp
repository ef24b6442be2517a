/// Regenerates **Table 2** of the paper: Block Jacobi vs Parallel Southwell
/// vs Distributed Southwell reducing ‖r‖₂ to 0.1 with 8192 (simulated) MPI
/// processes, on the 14-matrix proxy suite. Reports modeled wall-clock
/// time, communication cost (total messages / P), parallel steps,
/// relaxations/n, and active processes — with linear interpolation on
/// log10(‖r‖₂) and the † marker for methods that fail within 50 steps,
/// exactly as the paper's caption specifies.

#include <iostream>

#include "support/bench_support.hpp"

namespace dsouth::bench {
namespace {

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto procs = static_cast<index_t>(args.get_int_or("procs", 8192));
  const double size_factor = args.get_double_or("size_factor", 1.0);
  const double target = args.get_double_or("target", 0.1);
  const auto matrices = select_matrices(args);
  TraceCapture capture(args);
  BenchRecorder record("table2", args);
  auto opt = default_run_options();
  apply_backend_args(args, opt);
  capture.apply(opt);
  reject_unread_args(args);

  print_header(
      "Table 2 — reducing ||r||_2 to 0.1",
      "paper Table 2 (and the source runs for Tables 3-4)",
      "14 SuiteSparse proxies (DESIGN.md §5), P=" + std::to_string(procs) +
          " simulated ranks, b=0, random x0 with ||r0||=1, local solve = "
          "1 GS sweep, 50 parallel steps");

  util::Table table({"Matrix", "t:BJ", "t:PS", "t:DS", "comm:BJ", "comm:PS",
                     "comm:DS", "steps:BJ", "steps:PS", "steps:DS",
                     "rlx/n:BJ", "rlx/n:PS", "rlx/n:DS", "act:BJ", "act:PS",
                     "act:DS"});
  util::CsvWriter csv(csv_path("table2_target_residual.csv"),
                      {"matrix", "method", "reached", "model_time",
                       "comm_cost", "steps", "relaxations_per_n",
                       "active_fraction"});

  for (const auto& name : matrices) {
    auto problem = make_dist_problem(name, size_factor);
    auto runs = run_three_methods(problem, procs, opt);
    table.row().cell(name);
    const dist::DistRunResult* results[3] = {&runs.bj, &runs.ps, &runs.ds};
    for (const auto* r : results) {
      capture.add_run(name + " " + r->method, *r);
      record.add_run(name + " " + r->method, name, *r);
    }
    std::optional<dist::DistRunResult::AtTarget> at[3];
    for (int m = 0; m < 3; ++m) at[m] = results[m]->at_target(target);
    auto emit = [&](auto getter, int precision) {
      for (int m = 0; m < 3; ++m) {
        table.cell(value_or_dagger(
            at[m] ? std::optional<double>(getter(*at[m])) : std::nullopt,
            precision));
      }
    };
    emit([](const auto& t) { return t.model_time * 1e3; }, 3);  // ms
    emit([](const auto& t) { return t.comm_cost; }, 3);
    emit([](const auto& t) { return t.steps; }, 3);
    emit([](const auto& t) { return t.relaxations_per_n; }, 3);
    emit([](const auto& t) { return t.active_fraction; }, 3);
    for (int m = 0; m < 3; ++m) {
      csv.write_row(std::vector<std::string>{
          name, results[m]->method, at[m] ? "1" : "0",
          at[m] ? util::format_double(at[m]->model_time, 9) : "",
          at[m] ? util::format_double(at[m]->comm_cost, 6) : "",
          at[m] ? util::format_double(at[m]->steps, 6) : "",
          at[m] ? util::format_double(at[m]->relaxations_per_n, 6) : "",
          at[m] ? util::format_double(at[m]->active_fraction, 6) : ""});
    }
    std::cerr << "  [" << name << "] done\n";
  }
  std::cout << "Model time in milliseconds (simulated machine; shapes, not "
               "absolute values, are comparable to the paper).\n\n";
  table.print(std::cout);
  std::cout << "\nCSV: " << csv.path() << "\n";
  return 0;
}

}  // namespace
}  // namespace dsouth::bench

int main(int argc, char** argv) { return dsouth::bench::run(argc, argv); }
