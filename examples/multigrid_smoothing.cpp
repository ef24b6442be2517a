/// Multigrid smoothing with Distributed Southwell (the paper's §4.1 use
/// case): build a geometric multigrid hierarchy for the 2-D Poisson
/// equation and compare smoothers cycle by cycle — including the "1/2
/// sweep" budgeted Distributed Southwell that still gives grid-independent
/// convergence.
///
/// Run:  ./multigrid_smoothing [-dim 127] [-cycles 9] [-seed 3]

#include <iostream>
#include <sstream>

#include "multigrid/hierarchy.hpp"
#include "sparse/vec.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dsouth;
  util::ArgParser args(argc, argv);
  const auto dim = static_cast<sparse::index_t>(args.get_int_or("dim", 127));
  const int cycles = static_cast<int>(args.get_int_or("cycles", 9));
  DSOUTH_CHECK_MSG(cycles >= 1, "-cycles must be >= 1, got " << cycles);
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 3));

  auto mg = multigrid::geometric_poisson_hierarchy(dim);
  std::cout << "Geometric multigrid on a " << dim << "x" << dim
            << " Poisson grid, " << mg.num_levels()
            << " levels down to 3x3 (exact solve), V(1,1) cycles.\n\n";

  util::Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(dim * dim));
  rng.fill_uniform(b, -1.0, 1.0);

  struct Config {
    const char* name;
    std::unique_ptr<multigrid::Smoother> smoother;
    std::vector<double> x;
    double r0 = 0.0;
  };
  Config configs[5];
  configs[0] = {"GS 1 sweep", multigrid::make_gauss_seidel_smoother(), {}, 0};
  configs[1] = {"Jacobi(2/3) 1 sweep", multigrid::make_jacobi_smoother(), {},
                0};
  configs[2] = {"Chebyshev(3)", multigrid::make_chebyshev_smoother(), {}, 0};
  configs[3] = {"DistSW 1/2 sweep",
                multigrid::make_distributed_southwell_smoother(0.5), {}, 0};
  configs[4] = {"DistSW 1 sweep",
                multigrid::make_distributed_southwell_smoother(1.0), {}, 0};

  const auto& a = mg.level_matrix(0);
  std::vector<double> r(b.size());
  for (auto& cfg : configs) {
    cfg.x.assign(b.size(), 0.0);
    a.residual(b, cfg.x, r);
    cfg.r0 = sparse::norm2(r);
  }

  util::Table table({"Cycle", "GS 1 sweep", "Jacobi(2/3)", "Chebyshev(3)",
                     "DistSW 1/2", "DistSW 1"});
  for (int c = 1; c <= cycles; ++c) {
    table.row().cell(static_cast<std::size_t>(c));
    for (auto& cfg : configs) {
      mg.vcycle(b, cfg.x, *cfg.smoother);
      a.residual(b, cfg.x, r);
      std::ostringstream os;
      os.setf(std::ios::scientific);
      os.precision(2);
      os << sparse::norm2(r) / cfg.r0;
      table.cell(os.str());
    }
  }
  table.print(std::cout);
  std::cout << "\nEach column shows ||r|| / ||r0|| after each V-cycle. "
               "DistSW spends its relaxation budget where residuals are "
               "largest, which is why '1 sweep' beats GS per relaxation "
               "(paper Figure 6).\n";
  return 0;
}
