/// Regenerates **Figure 5** of the paper: scalar Distributed Southwell
/// compared to Sequential Southwell, Parallel Southwell and Multicolor
/// Gauss–Seidel on the same small FEM problem as Figure 2 (all methods in
/// scalar form, subdomain size 1). The paper's observations to look for:
/// DS closely matches Par SW down to ‖r‖ ≈ 0.6 (the Southwell "sweet
/// spot"), relaxes more equations per parallel step, and degrades mildly
/// at higher accuracy.

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

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto sweeps = static_cast<index_t>(args.get_int_or("sweeps", 3));
  reject_unread_args(args);

  auto fem = sparse::make_small_fem_problem();
  const index_t n = fem.a.rows();
  print_header("Figure 5 — scalar Distributed Southwell vs the other "
               "scalar methods",
               "paper Figure 5",
               "same FEM problem and setup as Figure 2, n=" +
                   std::to_string(n));

  std::vector<value_t> b(static_cast<std::size_t>(n));
  util::Rng rng(0xF162ULL);  // same RHS as the Figure 2 bench
  rng.fill_uniform(b, -1.0, 1.0);
  sparse::scale(1.0 / sparse::norm2(b), b);
  std::vector<value_t> x0(b.size(), 0.0);

  core::ScalarRunOptions sopt;
  sopt.max_sweeps = sweeps;
  auto sw = core::run_sequential_southwell(fem.a, b, x0, sopt);
  auto mcgs = core::run_multicolor_gs(fem.a, b, x0, sopt);
  core::ParallelSouthwellOptions popt;
  popt.base.max_sweeps = sweeps;
  auto psw = core::run_parallel_southwell(fem.a, b, x0, popt);
  core::DistSouthwellScalarOptions dopt;
  dopt.base.max_sweeps = sweeps;
  auto ds = core::run_distributed_southwell_scalar(fem.a, b, x0, dopt);

  util::Table summary({"Method", "to 0.8", "to 0.6", "to 0.4",
                       "parallel steps", "relax/step"});
  struct Entry {
    const char* name;
    const core::ConvergenceHistory* h;
  };
  const Entry entries[] = {{"SW", &sw},
                           {"Par SW", &psw},
                           {"MC GS", &mcgs},
                           {"Dist SW", &ds.history}};
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
  std::cout << "\nDist SW messages: solve=" << ds.solve_messages
            << ", explicit residual=" << ds.residual_messages << "\n";

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
  util::PlotOptions popts2;
  popts2.x_label = "relaxations";
  popts2.y_label = "||r||_2";
  util::render_plot(std::cout, plot, popts2);

  util::CsvWriter csv(csv_path("fig5_distsw_scalar.csv"),
                      {"method", "relaxations", "residual_norm"});
  for (const auto& e : entries) {
    for (const auto& pt : e.h->points) {
      csv.write_row(std::vector<std::string>{
          e.name, std::to_string(pt.relaxations),
          util::format_double(pt.residual_norm, 9)});
    }
  }
  std::cout << "CSV: " << csv.path() << "\n";
  return 0;
}

}  // namespace
}  // namespace dsouth::bench

int main(int argc, char** argv) { return dsouth::bench::run(argc, argv); }
