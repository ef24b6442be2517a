/// Regenerates **Figure 8** of the paper: strong scaling — modeled
/// wall-clock time to reduce ‖r‖₂ to 0.1 as a function of the simulated
/// rank count P ∈ {32 … 8192}, for the six matrices of the paper's figure.
/// Shapes to reproduce: time initially falls with P then rises (compute
/// shrinks, communication grows), Block Jacobi is fastest *when it
/// converges* but drops out at larger P on most problems, and Distributed
/// Southwell beats Parallel Southwell nearly everywhere.

#include <iostream>

#include "support/bench_support.hpp"
#include "util/ascii_plot.hpp"

namespace dsouth::bench {
namespace {

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const double size_factor = args.get_double_or("size_factor", 1.0);
  const double target = args.get_double_or("target", 0.1);
  auto procs = args.get_int_list_or(
      "procs", {32, 64, 128, 256, 512, 1024, 2048, 4096, 8192});
  std::vector<std::string> matrices = scaling_figure_matrices();
  if (args.has("matrices")) matrices = select_matrices(args);

  auto base_opt = default_run_options();
  apply_backend_args(args, base_opt);
  TraceCapture capture(args);
  capture.apply(base_opt);
  BenchRecorder record("fig8", args);
  reject_unread_args(args);

  print_header("Figure 8 — strong scaling: model time to ||r||=0.1 vs P",
               "paper Figure 8",
               "P in {32..8192} simulated ranks, 50 parallel steps max");

  util::CsvWriter csv(csv_path("fig8_strong_scaling.csv"),
                      {"matrix", "procs", "method", "reached", "model_time",
                       "backend", "threads", "wall_seconds"});
  double total_wall = 0.0;
  std::string backend_used;
  int threads_used = 1;
  for (const auto& name : matrices) {
    auto problem = make_dist_problem(name, size_factor);
    std::cout << "--- " << name << " (model ms to target; † = not reached "
                                   "in 50 steps) ---\n";
    util::Table table({"P", "BJ", "PS", "DS"});
    std::vector<util::PlotSeries> plot(3);
    plot[0].name = "BJ";
    plot[1].name = "PS";
    plot[2].name = "DS";
    for (auto p64 : procs) {
      const auto p = static_cast<index_t>(p64);
      auto runs = run_three_methods(problem, p, base_opt);
      const dist::DistRunResult* results[3] = {&runs.bj, &runs.ps, &runs.ds};
      table.row().cell(static_cast<std::size_t>(p));
      for (int m = 0; m < 3; ++m) {
        const auto* r = results[m];
        capture.add_run(name + " P=" + std::to_string(p) + " " + r->method,
                        *r);
        record.add_run(name + " P=" + std::to_string(p) + " " + r->method,
                       name, *r);
        auto at = r->at_target(target);
        if (at) {
          plot[static_cast<std::size_t>(m)].x.push_back(
              static_cast<double>(p));
          plot[static_cast<std::size_t>(m)].y.push_back(at->model_time *
                                                        1e3);
        }
        table.cell(value_or_dagger(
            at ? std::optional<double>(at->model_time * 1e3) : std::nullopt,
            3));
        csv.write_row(std::vector<std::string>{
            name, std::to_string(p), r->method, at ? "1" : "0",
            at ? util::format_double(at->model_time, 9) : "", r->backend,
            std::to_string(r->num_threads),
            util::format_double(r->wall_seconds, 6)});
        total_wall += r->wall_seconds;
        backend_used = r->backend;
        threads_used = r->num_threads;
      }
      std::cerr << "  [" << name << " P=" << p << "] done\n";
    }
    table.print(std::cout);
    util::PlotOptions popts;
    popts.height = 12;
    popts.log_x = true;
    popts.x_label = "P (log)";
    popts.y_label = "model ms to 0.1 (log)";
    util::render_plot(std::cout, plot, popts);
    std::cout << "\n";
  }
  std::cout << "Backend: " << backend_used << " (" << threads_used
            << " thread" << (threads_used == 1 ? "" : "s")
            << "), total solve wall-clock "
            << util::format_double(total_wall, 3) << " s\n";
  std::cout << "CSV: " << csv.path() << "\n";
  return 0;
}

}  // namespace
}  // namespace dsouth::bench

int main(int argc, char** argv) { return dsouth::bench::run(argc, argv); }
