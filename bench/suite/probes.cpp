#include "probes.hpp"

#include <algorithm>
#include <vector>

#include "graph/graph.hpp"
#include "kernels/kernels.hpp"
#include "util/error.hpp"
#include "wire/wire.hpp"

namespace dsouth::suite {

namespace {

/// Keeps probe results observable so the timed calls cannot be elided.
volatile double g_sink = 0.0;

/// Repeat `pass` until `budget_s` has elapsed and at least `min_reps` ran.
template <typename Fn>
void repeat_for(double budget_s, int min_reps, Fn&& pass) {
  const double until = now_s() + budget_s;
  for (int i = 0; i < min_reps || now_s() < until; ++i) pass();
}

}  // namespace

SweepWork probe_gs_sweep(const dist::DistLayout& layout,
                         std::span<const sparse::value_t> x0,
                         double budget_s, Spans& spans) {
  // r starts as a copy of x⁰: any nonzero data works, and every pass
  // restarts from the same values (repeated sweeps would otherwise drive r
  // towards denormals).
  const auto x_init = layout.scatter(x0);
  auto x = x_init;
  auto r = x_init;
  SweepWork work;
  for (int p = 0; p < layout.num_ranks(); ++p) {
    const auto& a = layout.rank(p).a_local;
    const auto m = static_cast<double>(a.rows());
    work.nnz += static_cast<std::uint64_t>(a.nnz());
    work.rows += static_cast<std::uint64_t>(a.rows());
    work.bytes += static_cast<double>(a.nnz()) *
                      (sizeof(sparse::value_t) + sizeof(sparse::index_t)) +
                  (m + 1.0) * sizeof(sparse::index_t) +
                  4.0 * m * sizeof(sparse::value_t);
  }
  repeat_for(budget_s, 5, [&] {
    for (std::size_t p = 0; p < x.size(); ++p) {
      std::copy(x_init[p].begin(), x_init[p].end(), x[p].begin());
      std::copy(x_init[p].begin(), x_init[p].end(), r[p].begin());
    }
    double flops = 0.0;
    {
      const Scope s(&spans, "kernels.gs_sweep");
      for (int p = 0; p < layout.num_ranks(); ++p) {
        const auto up = static_cast<std::size_t>(p);
        flops += kernels::gs_sweep(layout.rank(p).a_local, x[up], r[up]);
      }
    }
    work.flops = flops;
  });
  g_sink = g_sink + (x.front().empty() ? 0.0 : x.front().front());
  return work;
}

std::uint64_t probe_wire(const dist::DistLayout& layout,
                         std::span<const sparse::value_t> x0, double budget_s,
                         Spans& spans) {
  // Encode gathers the boundary values through send_rows_local straight
  // into the record, as the DS solve phase does.
  const auto x = layout.scatter(x0);
  std::vector<std::vector<std::vector<double>>> bufs(x.size());
  std::uint64_t doubles = 0;
  for (int p = 0; p < layout.num_ranks(); ++p) {
    const auto up = static_cast<std::size_t>(p);
    for (const auto& peer : layout.comm_plan().peers(p)) {
      bufs[up].emplace_back(
          wire::encoded_doubles(wire::RecordType::kSolveUpdate,
                                peer.send_width));
      doubles += bufs[up].back().size();
    }
  }
  repeat_for(budget_s, 5, [&] {
    {
      const Scope s(&spans, "wire.encode");
      for (int p = 0; p < layout.num_ranks(); ++p) {
        const auto up = static_cast<std::size_t>(p);
        const auto& nbs = layout.rank(p).neighbors;
        for (std::size_t k = 0; k < nbs.size(); ++k) {
          const auto& rows = nbs[k].send_rows_local;
          auto rec = wire::begin_record(wire::RecordType::kSolveUpdate, 1.0,
                                        2.0, bufs[up][k], rows.size());
          for (std::size_t i = 0; i < rows.size(); ++i) {
            const auto v = x[up][static_cast<std::size_t>(rows[i])];
            rec.dx[i] = v;
            rec.rb[i] = -v;
          }
        }
      }
    }
    double acc = 0.0;
    {
      const Scope s(&spans, "wire.decode");
      for (int p = 0; p < layout.num_ranks(); ++p) {
        const auto up = static_cast<std::size_t>(p);
        const auto peers = layout.comm_plan().peers(p);
        for (std::size_t k = 0; k < peers.size(); ++k) {
          const auto rec = wire::decode_record(
              wire::Family::kEstimate, bufs[up][k], peers[k].send_width);
          acc += rec.norm2 + static_cast<double>(rec.dx.size());
        }
      }
    }
    g_sink = g_sink + acc;
  });
  return doubles;
}

void probe_repartition(const sparse::CsrMatrix& a,
                       const graph::Partition& part, int reps, Spans& spans) {
  const auto g = graph::Graph::from_matrix_structure(a);
  const std::vector<sparse::index_t> dead = {3, 11};
  DSOUTH_CHECK(part.num_parts > 11);
  for (int i = 0; i < reps; ++i) {
    const Scope s(&spans, "graph.repartition");
    const auto moved = graph::repartition_after_failure(g, part, dead);
    g_sink = g_sink + static_cast<double>(moved.part.front());
  }
}

std::uint64_t probe_checkpoint(const elastic::Checkpoint& state, int reps,
                               Spans& spans) {
  std::uint64_t bytes = 0;
  for (int i = 0; i < reps; ++i) {
    std::vector<std::uint8_t> buf;
    {
      const Scope s(&spans, "elastic.ckpt_encode");
      buf = elastic::encode(state);
    }
    bytes = buf.size();
    const Scope s(&spans, "elastic.ckpt_decode");
    const auto back = elastic::decode(buf);
    g_sink = g_sink + static_cast<double>(back.step);
  }
  return bytes;
}

}  // namespace dsouth::suite
