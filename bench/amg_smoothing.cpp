/// Extension bench: the Figure-6 smoothing question on *unstructured*
/// matrices. The paper's multigrid study uses a structured 2-D Poisson
/// grid; with the library's smoothed-aggregation AMG the same comparison —
/// Gauss–Seidel vs budget-exact Distributed Southwell smoothing — runs on
/// the FEM proxy matrices where no geometric hierarchy exists.

#include <iostream>
#include <sstream>

#include "multigrid/amg.hpp"
#include "sparse/proxy_suite.hpp"
#include "sparse/vec.hpp"
#include "support/bench_support.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsouth::bench {
namespace {

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const int cycles = static_cast<int>(args.get_int_or("cycles", 9));
  // Checked before the CSV is opened, so a bad value leaves no file behind.
  DSOUTH_CHECK_MSG(cycles >= 1, "-cycles must be >= 1, got " << cycles);
  const double size_factor = args.get_double_or("size_factor", 0.15);
  std::vector<std::string> matrices{"af_5_k101p", "Serenap", "msdoorp",
                                    "Fault_639p"};
  if (args.has("matrices")) matrices = select_matrices(args);
  reject_unread_args(args);

  print_header(
      "AMG smoothing — the Figure-6 question on unstructured matrices",
      "extension of paper Figure 6 (no direct artifact)",
      "smoothed-aggregation AMG V(1,1), " + std::to_string(cycles) +
          " cycles, random RHS");

  util::Table table({"Matrix", "rows", "levels", "op cx", "GS 1 sweep",
                     "DistSW 1/2 sweep", "DistSW 1 sweep"});
  util::CsvWriter csv(csv_path("amg_smoothing.csv"),
                      {"matrix", "smoother", "rel_residual"});
  for (const auto& name : matrices) {
    auto proxy = sparse::make_proxy(name, size_factor);
    auto amg = multigrid::amg_hierarchy(proxy.a);
    util::Rng rng(0xA3136ULL);
    std::vector<value_t> b(static_cast<std::size_t>(proxy.a.rows()));
    rng.fill_uniform(b, -1.0, 1.0);

    table.row().cell(name);
    table.cell(static_cast<std::size_t>(proxy.a.rows()));
    table.cell(static_cast<std::size_t>(amg.num_levels()));
    table.cell(amg.operator_complexity(), 2);
    struct Config {
      const char* label;
      std::unique_ptr<multigrid::Smoother> smoother;
    };
    Config configs[3];
    configs[0] = {"GS 1 sweep", multigrid::make_gauss_seidel_smoother()};
    configs[1] = {"DistSW 1/2 sweep",
                  multigrid::make_distributed_southwell_smoother(0.5)};
    configs[2] = {"DistSW 1 sweep",
                  multigrid::make_distributed_southwell_smoother(1.0)};
    for (auto& cfg : configs) {
      std::vector<value_t> x(b.size(), 0.0);
      const double rel =
          amg.solve_relative_residual(b, x, *cfg.smoother, cycles);
      std::ostringstream os;
      os.setf(std::ios::scientific);
      os.precision(3);
      os << rel;
      table.cell(os.str());
      csv.write_row(std::vector<std::string>{name, cfg.label, os.str()});
    }
    std::cerr << "  [" << name << "] done\n";
  }
  table.print(std::cout);
  std::cout << "\n'op cx' = operator complexity (Σ level nnz / fine nnz). "
               "The Figure-6 ordering — DistSW 1 sweep below GS below "
               "DistSW 1/2 sweep — should persist off the structured "
               "grid.\nCSV: "
            << csv.path() << "\n";
  return 0;
}

}  // namespace
}  // namespace dsouth::bench

int main(int argc, char** argv) { return dsouth::bench::run(argc, argv); }
