/// Regenerates **Figures 8 and 9** of the paper from one strong-scaling
/// sweep: Block Jacobi, Parallel Southwell and Distributed Southwell on the
/// six matrices of the paper's figures at simulated rank counts
/// P ∈ {32 … 8192}, 50 parallel steps each.
///
/// * Figure 8 — modeled wall-clock time to reduce ‖r‖₂ to 0.1 against P.
///   Shapes to reproduce: time initially falls with P then rises (compute
///   shrinks, communication grows), Block Jacobi is fastest *when it
///   converges* but drops out at larger P on most problems, and
///   Distributed Southwell beats Parallel Southwell nearly everywhere.
/// * Figure 9 — residual norm after the 50 steps against P. Block Jacobi's
///   convergence severely degrades — or diverges outright (norm above 1) —
///   as P grows, while Parallel and Distributed Southwell degrade only
///   mildly: the paper's case for Distributed Southwell as a
///   massively-parallel smoother.

#include <iostream>
#include <sstream>

#include "support/bench_support.hpp"
#include "util/ascii_plot.hpp"

namespace dsouth::bench {
namespace {

/// One figure's console view of one matrix: a table with a row per P and
/// a log-log plot with a series per method.
struct FigureView {
  util::Table table{{"P", "BJ", "PS", "DS"}};
  std::vector<util::PlotSeries> plot{{"BJ", {}, {}}, {"PS", {}, {}},
                                     {"DS", {}, {}}};

  void print(const std::string& heading, const std::string& y_label) const {
    std::cout << heading;
    table.print(std::cout);
    util::PlotOptions popts;
    popts.height = 12;
    popts.log_x = true;
    popts.x_label = "P (log)";
    popts.y_label = y_label;
    util::render_plot(std::cout, plot, popts);
    std::cout << "\n";
  }
};

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

  print_header("Figures 8 and 9 — strong scaling: model time to ||r||=0.1 "
               "and residual after 50 steps vs P",
               "paper Figures 8 and 9",
               "P in {32..8192} simulated ranks, 50 parallel steps max; "
               "norm > 1 means divergence");

  util::CsvWriter csv8(csv_path("fig8_strong_scaling.csv"),
                       {"matrix", "procs", "method", "reached", "model_time",
                        "backend", "threads", "wall_seconds"});
  util::CsvWriter csv9(csv_path("fig9_residual_after_50.csv"),
                       {"matrix", "procs", "method", "residual_after_50"});
  double total_wall = 0.0;
  std::string backend_used;
  int threads_used = 1;
  for (const auto& name : matrices) {
    auto problem = make_dist_problem(name, size_factor);
    FigureView fig8, fig9;
    for (auto p64 : procs) {
      const auto p = static_cast<index_t>(p64);
      auto runs = run_three_methods(problem, p, base_opt);
      const dist::DistRunResult* results[3] = {&runs.bj, &runs.ps, &runs.ds};
      fig8.table.row().cell(static_cast<std::size_t>(p));
      fig9.table.row().cell(static_cast<std::size_t>(p));
      for (std::size_t m = 0; m < 3; ++m) {
        const auto* r = results[m];
        const std::string label =
            name + " P=" + std::to_string(p) + " " + r->method;
        capture.add_run(label, *r);
        record.add_run(label, name, *r);
        auto at = r->at_target(target);
        if (at) {
          fig8.plot[m].x.push_back(static_cast<double>(p));
          fig8.plot[m].y.push_back(at->model_time * 1e3);
        }
        fig8.table.cell(value_or_dagger(
            at ? std::optional<double>(at->model_time * 1e3) : std::nullopt,
            3));
        csv8.write_row(std::vector<std::string>{
            name, std::to_string(p), r->method, at ? "1" : "0",
            at ? util::format_double(at->model_time, 9) : "", r->backend,
            std::to_string(r->num_threads),
            util::format_double(r->wall_seconds, 6)});
        const double after_50 = r->residual_norm.back();
        fig9.plot[m].x.push_back(static_cast<double>(p));
        fig9.plot[m].y.push_back(after_50);
        std::ostringstream os;
        os.setf(std::ios::scientific);
        os.precision(2);
        os << after_50;
        fig9.table.cell(os.str());
        csv9.write_row(std::vector<std::string>{
            name, std::to_string(p), r->method,
            util::format_double(after_50, 9)});
        total_wall += r->wall_seconds;
        backend_used = r->backend;
        threads_used = r->num_threads;
      }
      std::cerr << "  [" << name << " P=" << p << "] done\n";
    }
    fig8.print("--- Figure 8: " + name +
                   " (model ms to target; † = not reached in 50 steps) ---\n",
               "model ms to 0.1 (log)");
    fig9.print("--- Figure 9: " + name + " (||r|| after 50 steps) ---\n",
               "||r|| after 50 steps (log)");
  }
  std::cout << "Backend: " << backend_used << " (" << threads_used
            << " thread" << (threads_used == 1 ? "" : "s")
            << "), total solve wall-clock "
            << util::format_double(total_wall, 3) << " s\n";
  std::cout << "CSV: " << csv8.path() << "\nCSV: " << csv9.path() << "\n";
  return 0;
}

}  // namespace
}  // namespace dsouth::bench

int main(int argc, char** argv) { return dsouth::bench::run(argc, argv); }
