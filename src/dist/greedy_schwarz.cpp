#include "dist/greedy_schwarz.hpp"

#include <cmath>

#include "dist/solver_base.hpp"
#include "kernels/kernels.hpp"
#include "util/error.hpp"
#include "util/indexed_heap.hpp"

namespace dsouth::dist {

GreedySchwarzResult run_greedy_schwarz(const DistLayout& layout,
                                       std::span<const value_t> b,
                                       std::span<const value_t> x0,
                                       const GreedySchwarzOptions& opt) {
  const int nranks = layout.num_ranks();
  DSOUTH_CHECK(b.size() == static_cast<std::size_t>(layout.global_rows()));
  DSOUTH_CHECK(x0.size() == static_cast<std::size_t>(layout.global_rows()));

  // Local state, initialized exactly like the distributed solvers. The
  // setup is per-rank work, so it runs through the backend when given one.
  auto x = layout.scatter(x0);
  auto r = layout.scatter(b);
  simmpi::SequentialBackend sequential;
  simmpi::ExecutionBackend& backend = opt.backend ? *opt.backend : sequential;
  backend.run_epoch(nranks, [&](int p) {
    subtract_a_times_x_local(layout, x, r[static_cast<std::size_t>(p)], p);
  });

  util::IndexedMaxHeap<value_t> heap(static_cast<std::size_t>(nranks));
  double total_sq = 0.0;
  for (int p = 0; p < nranks; ++p) {
    const value_t n2 = kernels::norm_sq(r[static_cast<std::size_t>(p)]);
    heap.push(static_cast<std::size_t>(p), n2);
    total_sq += n2;
  }

  GreedySchwarzResult result;
  result.residual_norm.push_back(std::sqrt(std::max(0.0, total_sq)));
  const index_t budget = opt.max_block_relaxations > 0
                             ? opt.max_block_relaxations
                             : static_cast<index_t>(nranks);
  std::vector<value_t> x_before, dx;
  for (index_t step = 0; step < budget; ++step) {
    const auto p = static_cast<int>(heap.top());
    if (heap.top_key() <= 0.0) break;  // exactly solved
    const RankData& rd = layout.rank(p);
    const auto up = static_cast<std::size_t>(p);
    x_before = x[up];
    kernels::gs_sweep(rd.a_local, x[up], r[up]);
    result.total_row_relaxations += rd.num_rows();
    result.relaxed_rank.push_back(p);
    heap.update(up, kernels::norm_sq(r[up]));
    // Propagate Δx to the neighbors' residuals immediately (multiplicative
    // Schwarz: strictly sequential updates).
    dx.resize(x[up].size());
    for (std::size_t i = 0; i < dx.size(); ++i) {
      dx[i] = x[up][i] - x_before[i];
    }
    // r_q -= a_qp · Δx_p for each neighbor q. a_qp maps p-local dofs to
    // q's ghost-row ordering (q's boundary rows toward p), so translate
    // those rows back into q's local vector.
    for (const auto& nb : rd.neighbors) {
      const int q = nb.rank;
      const auto uq = static_cast<std::size_t>(q);
      std::vector<value_t> contrib(nb.ghost_rows.size(), 0.0);
      nb.a_qp.spmv(dx, contrib);
      for (std::size_t k = 0; k < nb.ghost_rows.size(); ++k) {
        const index_t g = nb.ghost_rows[k];
        r[uq][static_cast<std::size_t>(layout.local_of_row(g))] -= contrib[k];
      }
      heap.update(uq, kernels::norm_sq(r[uq]));
    }
    double sq = 0.0;
    for (int q = 0; q < nranks; ++q) {
      sq += heap.key_of(static_cast<std::size_t>(q));
    }
    result.residual_norm.push_back(std::sqrt(std::max(0.0, sq)));
    if (opt.target_residual > 0.0 &&
        result.residual_norm.back() <= opt.target_residual) {
      break;
    }
  }
  result.x = layout.gather(x);
  return result;
}

}  // namespace dsouth::dist
