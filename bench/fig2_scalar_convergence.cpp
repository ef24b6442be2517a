/// Regenerates **Figures 2 and 5** of the paper from one set of runs on
/// the small irregular-FEM Poisson problem (3081 rows; see
/// sparse::make_small_fem_problem), three sweeps each. Figure 2 compares
/// Gauss–Seidel, Sequential Southwell, Parallel Southwell, Multicolor
/// Gauss–Seidel and Jacobi; Figure 5 adds scalar Distributed Southwell
/// (subdomain size 1) against SW, Par SW and MC GS, where DS should match
/// Par SW down to ‖r‖ ≈ 0.6 (the Southwell "sweet spot") while relaxing
/// more equations per parallel step. The full curves go to one CSV per
/// figure; the console shows the residual at half-sweep checkpoints, the
/// relaxations to reach 0.8/0.6/0.4, parallel-step counts and the number
/// of colors.

#include <algorithm>
#include <iostream>

#include "core/classic.hpp"
#include "core/dist_southwell_scalar.hpp"
#include "core/parallel_southwell.hpp"
#include "core/southwell.hpp"
#include "graph/coloring.hpp"
#include "sparse/proxy_suite.hpp"
#include "sparse/vec.hpp"
#include "support/bench_support.hpp"
#include "util/ascii_plot.hpp"
#include "util/rng.hpp"

namespace dsouth::bench {
namespace {

using core::ConvergenceHistory;

/// Residual at a relaxation count, interpolating between recorded points.
double residual_at(const ConvergenceHistory& h, double relaxations) {
  if (h.points.empty()) return 0.0;
  if (relaxations <= static_cast<double>(h.points.front().relaxations)) {
    return h.points.front().residual_norm;
  }
  for (std::size_t k = 1; k < h.points.size(); ++k) {
    if (static_cast<double>(h.points[k].relaxations) >= relaxations) {
      const auto& a = h.points[k - 1];
      const auto& b = h.points[k];
      const double span = static_cast<double>(b.relaxations - a.relaxations);
      const double frac =
          span == 0.0
              ? 1.0
              : (relaxations - static_cast<double>(a.relaxations)) / span;
      return a.residual_norm + frac * (b.residual_norm - a.residual_norm);
    }
  }
  return h.points.back().residual_norm;
}

void dump_series(util::CsvWriter& csv, const std::string& method,
                 const ConvergenceHistory& h) {
  for (std::size_t k = 0; k < h.points.size(); ++k) {
    const bool mark =
        std::find(h.step_marks.begin(), h.step_marks.end(), k) !=
        h.step_marks.end();
    csv.write_row(std::vector<std::string>{
        method, std::to_string(h.points[k].relaxations),
        util::format_double(h.points[k].residual_norm, 9),
        mark ? "1" : "0"});
  }
}

struct Entry {
  const char* name;
  const ConvergenceHistory* h;
};

/// Relaxations to reach each target, parallel steps and relaxations per
/// parallel step, one row per method.
void print_summary(const std::vector<Entry>& entries) {
  std::cout << "\nRelaxations to reach a residual norm target "
               "(interpolated):\n";
  util::Table summary({"Method", "to 0.8", "to 0.6", "to 0.4",
                       "parallel steps", "relax/step"});
  for (const auto& e : entries) {
    summary.row().cell(e.name);
    for (double target : {0.8, 0.6, 0.4}) {
      summary.cell(value_or_dagger(e.h->relaxations_to_reach(target), 0));
    }
    if (e.h->step_marks.empty()) {
      summary.cell(std::string("(sequential)")).cell(std::string("1"));
    } else {
      summary.cell(std::to_string(e.h->num_parallel_steps()));
      summary.cell(static_cast<double>(e.h->total_relaxations()) /
                       static_cast<double>(e.h->num_parallel_steps()),
                   1);
    }
  }
  summary.print(std::cout);
}

void plot_series(const std::vector<Entry>& entries) {
  std::cout << "\nResidual norm vs. relaxations (log y):\n";
  std::vector<util::PlotSeries> plot;
  for (const auto& e : entries) {
    util::PlotSeries ps;
    ps.name = e.name;
    for (const auto& pt : e.h->points) {
      ps.x.push_back(static_cast<double>(pt.relaxations));
      ps.y.push_back(pt.residual_norm);
    }
    plot.push_back(std::move(ps));
  }
  util::PlotOptions popts;
  popts.x_label = "relaxations";
  popts.y_label = "||r||_2";
  util::render_plot(std::cout, plot, popts);
}

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto sweeps = static_cast<index_t>(args.get_int_or("sweeps", 3));
  reject_unread_args(args);

  auto fem = sparse::make_small_fem_problem();
  const index_t n = fem.a.rows();
  print_header("Figures 2 and 5 — scalar method convergence on the small "
               "FEM problem",
               "paper Figures 2 and 5",
               "P1 FEM Poisson on a perturbed 81x41 triangulation, n=" +
                   std::to_string(n) + ", b random with ||b||=1, x0=0, " +
                   std::to_string(sweeps) + " sweeps");

  // RHS: uniform random, mean zero, scaled so ‖b‖₂ = 1 (paper §2.3).
  std::vector<value_t> b(static_cast<std::size_t>(n));
  util::Rng rng(0xF162ULL);
  rng.fill_uniform(b, -1.0, 1.0);
  sparse::scale(1.0 / sparse::norm2(b), b);
  std::vector<value_t> x0(b.size(), 0.0);

  core::ScalarRunOptions sopt;
  sopt.max_sweeps = sweeps;
  auto gs = core::run_gauss_seidel(fem.a, b, x0, sopt);
  auto sw = core::run_sequential_southwell(fem.a, b, x0, sopt);
  auto jac = core::run_jacobi(fem.a, b, x0, sopt);
  auto coloring = graph::greedy_coloring(
      graph::Graph::from_matrix_structure(fem.a), graph::ColoringOrder::kBfs);
  auto mcgs = core::run_multicolor_gs(fem.a, b, x0, sopt, &coloring);
  core::ParallelSouthwellOptions popt;
  popt.base.max_sweeps = sweeps;
  auto psw = core::run_parallel_southwell(fem.a, b, x0, popt);
  core::DistSouthwellScalarOptions dopt;
  dopt.base.max_sweeps = sweeps;
  auto ds = core::run_distributed_southwell_scalar(fem.a, b, x0, dopt);

  const std::vector<Entry> fig2 = {{"GS", &gs},
                                   {"SW", &sw},
                                   {"Par SW", &psw},
                                   {"MC GS", &mcgs},
                                   {"Jacobi", &jac}};
  const std::vector<Entry> fig5 = {{"SW", &sw},
                                   {"Par SW", &psw},
                                   {"MC GS", &mcgs},
                                   {"Dist SW", &ds.history}};

  std::cout << "--- Figure 2: GS, SW, Par SW, MC GS and Jacobi ---\n";
  util::Table curve({"Relaxations", "GS", "SW", "Par SW", "MC GS", "Jacobi"});
  for (index_t c = 0; c <= 2 * sweeps; ++c) {
    const double rlx = 0.5 * static_cast<double>(c) * static_cast<double>(n);
    curve.row().cell(static_cast<std::size_t>(rlx));
    for (const auto& e : fig2) curve.cell(residual_at(*e.h, rlx), 4);
  }
  curve.print(std::cout);
  print_summary(fig2);
  std::cout << "\nMulticolor GS uses " << coloring.num_colors
            << " colors (BFS greedy; the paper reports 6).\n";
  plot_series(fig2);

  std::cout << "\n--- Figure 5: scalar Distributed Southwell vs SW, Par SW "
               "and MC GS ---\n";
  print_summary(fig5);
  std::cout << "\nDist SW messages: solve=" << ds.solve_messages
            << ", explicit residual=" << ds.residual_messages << "\n";
  plot_series(fig5);

  util::CsvWriter csv2(csv_path("fig2_scalar_convergence.csv"),
                       {"method", "relaxations", "residual_norm",
                        "parallel_step_mark"});
  for (const auto& e : fig2) dump_series(csv2, e.name, *e.h);
  util::CsvWriter csv5(csv_path("fig5_distsw_scalar.csv"),
                       {"method", "relaxations", "residual_norm"});
  for (const auto& e : fig5) {
    for (const auto& pt : e.h->points) {
      csv5.write_row(std::vector<std::string>{
          e.name, std::to_string(pt.relaxations),
          util::format_double(pt.residual_norm, 9)});
    }
  }
  std::cout << "CSV: " << csv2.path() << "\nCSV: " << csv5.path() << "\n";
  return 0;
}

}  // namespace
}  // namespace dsouth::bench

int main(int argc, char** argv) { return dsouth::bench::run(argc, argv); }
