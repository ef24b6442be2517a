/// Regenerates **Figure 7** of the paper: full residual traces — residual
/// norm against modeled wall-clock time, communication cost, and parallel
/// step — for the four problems whose Block Jacobi behavior differs:
/// Geo_1438 and Hook_1498 (BJ reaches 0.1 then diverges), bone010 (BJ
/// never reaches 0.1) and af_5_k101 (BJ never diverges), at 8192 simulated
/// ranks. Full series go to CSV; the console shows the per-step residual
/// table and a divergence classification.

#include <iostream>
#include <sstream>

#include "support/bench_support.hpp"
#include "util/ascii_plot.hpp"

namespace dsouth::bench {
namespace {

const char* classify(const dist::DistRunResult& r, double target) {
  const bool reached = r.at_target(target).has_value();
  double max_after = 0.0;
  for (double v : r.residual_norm) max_after = std::max(max_after, v);
  const bool diverged = r.residual_norm.back() > 1.0 || max_after > 10.0;
  if (reached && diverged) return "reaches 0.1, later diverges";
  if (reached && r.residual_norm.back() > target) {
    return "reaches 0.1, later degrades above it";
  }
  if (reached) return "reaches 0.1, stays stable";
  if (diverged) return "diverges";
  return "does not reach 0.1 in 50 steps";
}

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto procs = static_cast<index_t>(args.get_int_or("procs", 8192));
  const double size_factor = args.get_double_or("size_factor", 1.0);
  std::vector<std::string> matrices{"Geo_1438p", "Hook_1498p", "bone010p",
                                    "af_5_k101p"};
  if (args.has("matrices")) matrices = select_matrices(args);
  TraceCapture capture(args);
  BenchRecorder record("fig7", args);
  auto opt = default_run_options();
  apply_backend_args(args, opt);
  capture.apply(opt);
  reject_unread_args(args);

  print_header("Figure 7 — residual traces vs time / comm / step",
               "paper Figure 7",
               "four representative proxies, P=" + std::to_string(procs) +
                   ", 50 parallel steps");

  util::CsvWriter csv(csv_path("fig7_traces.csv"),
                      {"matrix", "method", "step", "model_time", "comm_cost",
                       "residual_norm"});
  for (const auto& name : matrices) {
    auto problem = make_dist_problem(name, size_factor);
    auto runs = run_three_methods(problem, procs, opt);
    const dist::DistRunResult* results[3] = {&runs.bj, &runs.ps, &runs.ds};
    for (const auto* r : results) {
      capture.add_run(name + " " + r->method, *r);
      record.add_run(name + " " + r->method, name, *r);
    }

    std::cout << "--- " << name << " ---\n";
    util::Table table({"Step", "r:BJ", "r:PS", "r:DS"});
    const std::size_t steps = results[0]->residual_norm.size();
    for (std::size_t k = 0; k < steps; k += 5) {
      table.row().cell(k);
      for (const auto* r : results) {
        std::ostringstream os;
        os.setf(std::ios::scientific);
        os.precision(2);
        os << (k < r->residual_norm.size() ? r->residual_norm[k]
                                           : r->residual_norm.back());
        table.cell(os.str());
      }
    }
    table.print(std::cout);
    {
      std::vector<util::PlotSeries> plot;
      for (const auto* r : results) {
        util::PlotSeries ps;
        ps.name = dist::method_abbrev(
            r->method == "BlockJacobi"
                ? dist::DistMethod::kBlockJacobi
                : (r->method == "ParallelSouthwell"
                       ? dist::DistMethod::kParallelSouthwell
                       : dist::DistMethod::kDistributedSouthwell));
        for (std::size_t k = 0; k < r->residual_norm.size(); ++k) {
          ps.x.push_back(static_cast<double>(k));
          ps.y.push_back(r->residual_norm[k]);
        }
        plot.push_back(std::move(ps));
      }
      util::PlotOptions popts;
      popts.height = 14;
      popts.x_label = "parallel step";
      popts.y_label = "||r||_2";
      util::render_plot(std::cout, plot, popts);
    }
    for (const auto* r : results) {
      std::cout << "  " << r->method << ": " << classify(*r, 0.1) << "\n";
      for (std::size_t k = 0; k < r->residual_norm.size(); ++k) {
        csv.write_row(std::vector<std::string>{
            name, r->method, std::to_string(k),
            util::format_double(r->model_time[k], 9),
            util::format_double(r->comm_cost[k], 6),
            util::format_double(r->residual_norm[k], 9)});
      }
    }
    std::cout << "\n";
  }
  std::cout << "CSV: " << csv.path() << "\n";
  return 0;
}

}  // namespace
}  // namespace dsouth::bench

int main(int argc, char** argv) { return dsouth::bench::run(argc, argv); }
