/// Regenerates **Figure 9** of the paper: residual norm after 50 parallel
/// steps as a function of the simulated rank count P ∈ {32 … 8192}.
/// Shapes to reproduce: Block Jacobi's convergence severely degrades — or
/// diverges outright (norm above 1) — as P grows, while Parallel and
/// Distributed Southwell degrade only mildly. This is the paper's case
/// for Distributed Southwell as a massively-parallel smoother.

#include <iostream>
#include <sstream>

#include "support/bench_support.hpp"
#include "util/ascii_plot.hpp"

namespace dsouth::bench {
namespace {

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const double size_factor = args.get_double_or("size_factor", 1.0);
  auto procs = args.get_int_list_or(
      "procs", {32, 64, 128, 256, 512, 1024, 2048, 4096, 8192});
  std::vector<std::string> matrices = scaling_figure_matrices();
  if (args.has("matrices")) matrices = select_matrices(args);
  TraceCapture capture(args);
  BenchRecorder record("fig9", args);
  auto opt = default_run_options();
  apply_backend_args(args, opt);
  capture.apply(opt);
  reject_unread_args(args);

  print_header("Figure 9 — residual after 50 parallel steps vs P",
               "paper Figure 9",
               "P in {32..8192} simulated ranks; norm > 1 means divergence");

  util::CsvWriter csv(csv_path("fig9_residual_after_50.csv"),
                      {"matrix", "procs", "method", "residual_after_50"});
  for (const auto& name : matrices) {
    auto problem = make_dist_problem(name, size_factor);
    std::cout << "--- " << name << " ---\n";
    util::Table table({"P", "BJ", "PS", "DS"});
    std::vector<util::PlotSeries> plot(3);
    plot[0].name = "BJ";
    plot[1].name = "PS";
    plot[2].name = "DS";
    for (auto p64 : procs) {
      const auto p = static_cast<index_t>(p64);
      auto runs = run_three_methods(problem, p, opt);
      const dist::DistRunResult* results[3] = {&runs.bj, &runs.ps, &runs.ds};
      for (const auto* r : results) {
        capture.add_run(name + " P=" + std::to_string(p) + " " + r->method,
                        *r);
        record.add_run(name + " P=" + std::to_string(p) + " " + r->method,
                       name, *r);
      }
      table.row().cell(static_cast<std::size_t>(p));
      for (int m = 0; m < 3; ++m) {
        const auto* r = results[m];
        plot[static_cast<std::size_t>(m)].x.push_back(
            static_cast<double>(p));
        plot[static_cast<std::size_t>(m)].y.push_back(
            r->residual_norm.back());
        std::ostringstream os;
        os.setf(std::ios::scientific);
        os.precision(2);
        os << r->residual_norm.back();
        table.cell(os.str());
        csv.write_row(std::vector<std::string>{
            name, std::to_string(p), r->method,
            util::format_double(r->residual_norm.back(), 9)});
      }
      std::cerr << "  [" << name << " P=" << p << "] done\n";
    }
    table.print(std::cout);
    util::PlotOptions popts;
    popts.height = 12;
    popts.log_x = true;
    popts.x_label = "P (log)";
    popts.y_label = "||r|| after 50 steps (log)";
    util::render_plot(std::cout, plot, popts);
    std::cout << "\n";
  }
  std::cout << "CSV: " << csv.path() << "\n";
  return 0;
}

}  // namespace
}  // namespace dsouth::bench

int main(int argc, char** argv) { return dsouth::bench::run(argc, argv); }
