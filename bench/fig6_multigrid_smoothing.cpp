/// Regenerates **Figure 6** of the paper: relative residual norm after 9
/// V-cycles of geometric multigrid on the 2-D Poisson equation, for grid
/// dimensions 15 → 255, comparing Gauss–Seidel smoothing (1 sweep) against
/// Distributed Southwell smoothing with exactly the same number of
/// relaxations ("1 sweep") and half of them ("1/2 sweep", random-subset
/// final step). The paper's findings to reproduce: grid-size-independent
/// convergence in all cases, and DS at least as effective per relaxation
/// as GS.

#include <iostream>
#include <sstream>

#include "multigrid/hierarchy.hpp"
#include "support/bench_support.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsouth::bench {
namespace {

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto cycles = static_cast<int>(args.get_int_or("cycles", 9));
  // Checked before the CSV is opened, so a bad value leaves no file behind.
  DSOUTH_CHECK_MSG(cycles >= 1, "-cycles must be >= 1, got " << cycles);
  auto dims = args.get_int_list_or("dims", {15, 31, 63, 127, 255});
  reject_unread_args(args);

  print_header(
      "Figure 6 — multigrid smoothing with Distributed Southwell",
      "paper Figure 6",
      "2-D Poisson, 5-pt FD, V(1,1) cycles to a 3x3 exact coarse solve, "
      "random RHS in U(-1,1), " + std::to_string(cycles) + " V-cycles");

  util::Table table({"Grid", "GS 1 sweep", "DistSW 1/2 sweep",
                     "DistSW 1 sweep"});
  util::CsvWriter csv(csv_path("fig6_multigrid_smoothing.csv"),
                      {"grid_dim", "smoother", "rel_residual"});

  for (auto dim64 : dims) {
    const auto dim = static_cast<index_t>(dim64);
    auto mg = multigrid::geometric_poisson_hierarchy(dim);
    util::Rng rng(0xF166ULL + static_cast<std::uint64_t>(dim));
    std::vector<value_t> b(static_cast<std::size_t>(dim * dim));
    rng.fill_uniform(b, -1.0, 1.0);

    struct Config {
      const char* name;
      std::unique_ptr<multigrid::Smoother> smoother;
    };
    Config configs[3];
    configs[0] = {"GS 1 sweep", multigrid::make_gauss_seidel_smoother()};
    configs[1] = {"DistSW 1/2 sweep",
                  multigrid::make_distributed_southwell_smoother(0.5)};
    configs[2] = {"DistSW 1 sweep",
                  multigrid::make_distributed_southwell_smoother(1.0)};

    table.row().cell(std::to_string(dim) + "x" + std::to_string(dim));
    for (auto& cfg : configs) {
      std::vector<value_t> x(b.size(), 0.0);
      const double rel =
          mg.solve_relative_residual(b, x, *cfg.smoother, cycles);
      std::ostringstream os;
      os.setf(std::ios::scientific);
      os.precision(3);
      os << rel;
      table.cell(os.str());
      csv.write_row(std::vector<std::string>{std::to_string(dim), cfg.name,
                                             os.str()});
    }
    std::cerr << "  [" << dim << "x" << dim << "] done\n";
  }
  table.print(std::cout);
  std::cout << "\nExpect grid-size-independent convergence in every column "
               "and DistSW at least as effective as GS per relaxation "
               "(paper §4.1).\nCSV: "
            << csv.path() << "\n";
  return 0;
}

}  // namespace
}  // namespace dsouth::bench

int main(int argc, char** argv) { return dsouth::bench::run(argc, argv); }
