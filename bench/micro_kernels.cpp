/// Google-benchmark microbenchmarks for the library's hot kernels: SpMV,
/// the local Gauss–Seidel sweep and residual norm, Sequential Southwell's
/// heap-driven relaxation, graph coloring, partitioning, the distributed
/// layout build, one full parallel step of each distributed method, the
/// wire codec and checksum, and the elastic checkpoint codec. These guard
/// the constant factors the simulation's throughput depends on (all
/// experiment "timings" come from the machine model, not from these).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>

#include "core/scalar_engine.hpp"
#include "core/southwell.hpp"
#include "dist/harness.hpp"
#include "elastic/checkpoint.hpp"
#include "kernels/kernels.hpp"
#include "graph/coloring.hpp"
#include "graph/partition.hpp"
#include "sparse/proxy_suite.hpp"
#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "util/indexed_heap.hpp"
#include "util/rng.hpp"
#include "wire/wire.hpp"

namespace dsouth {
namespace {

sparse::CsrMatrix bench_matrix(sparse::index_t dim) {
  return sparse::symmetric_unit_diagonal_scale(
             sparse::poisson2d_5pt(dim, dim))
      .a;
}

void BM_Spmv(benchmark::State& state) {
  const auto dim = static_cast<sparse::index_t>(state.range(0));
  auto a = bench_matrix(dim);
  std::vector<double> x(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<double> y(x.size());
  for (auto _ : state) {
    a.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Spmv)->Arg(64)->Arg(256);

void BM_LocalGsSweep(benchmark::State& state) {
  const auto dim = static_cast<sparse::index_t>(state.range(0));
  auto a = bench_matrix(dim);
  std::vector<double> x(static_cast<std::size_t>(a.rows()), 0.0);
  std::vector<double> r(x.size(), 1.0);
  for (auto _ : state) {
    kernels::gs_sweep(a, x, r);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * a.rows());
}
BENCHMARK(BM_LocalGsSweep)->Arg(64)->Arg(256);

// ‖r‖² of one rank's residual, at the per-rank sizes of bone010p P=256
// (242 rows), ldoorp P=64 (893) and Emilia_923p P=16 (3690). The sum runs
// in a fixed order, one dependent add per row, so it is latency-bound;
// the solvers read it through DistStationarySolver's per-rank cache.
void BM_NormSq(benchmark::State& state) {
  std::vector<double> r(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(3);
  rng.fill_uniform(r, -1.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::norm_sq(r));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  // Seconds per row: the counter reads e.g. "800ps" for 0.8 ns a row.
  state.counters["per_row"] = benchmark::Counter(
      static_cast<double>(state.range(0)),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_NormSq)->Arg(242)->Arg(893)->Arg(3690);

void BM_SequentialSouthwellSweep(benchmark::State& state) {
  const auto dim = static_cast<sparse::index_t>(state.range(0));
  auto a = bench_matrix(dim);
  util::Rng rng(1);
  std::vector<double> b(static_cast<std::size_t>(a.rows()));
  rng.fill_uniform(b, -1.0, 1.0);
  std::vector<double> x0(b.size(), 0.0);
  core::ScalarRunOptions opt;
  opt.max_sweeps = 1;
  opt.record_each_relaxation = false;
  for (auto _ : state) {
    auto h = core::run_sequential_southwell(a, b, x0, opt);
    benchmark::DoNotOptimize(h.points.data());
  }
  state.SetItemsProcessed(state.iterations() * a.rows());
}
BENCHMARK(BM_SequentialSouthwellSweep)->Arg(64);

void BM_IndexedHeapChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  for (auto _ : state) {
    util::IndexedMaxHeap<double> heap(n);
    for (std::size_t i = 0; i < n; ++i) heap.push(i, rng.next_double());
    for (std::size_t i = 0; i < n; ++i) {
      heap.update(static_cast<std::size_t>(rng.next_below(n)),
                  rng.next_double());
    }
    while (!heap.empty()) benchmark::DoNotOptimize(heap.pop());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(3 * n));
}
BENCHMARK(BM_IndexedHeapChurn)->Arg(1024)->Arg(16384);

void BM_GreedyColoring(benchmark::State& state) {
  const auto dim = static_cast<sparse::index_t>(state.range(0));
  auto g = graph::Graph::from_matrix_structure(
      sparse::poisson2d_9pt(dim, dim));
  for (auto _ : state) {
    auto c = graph::greedy_coloring(g);
    benchmark::DoNotOptimize(c.color.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_GreedyColoring)->Arg(128);

void BM_PartitionBisection(benchmark::State& state) {
  const auto dim = static_cast<sparse::index_t>(state.range(0));
  auto g = graph::Graph::from_matrix_structure(
      sparse::poisson2d_5pt(dim, dim));
  for (auto _ : state) {
    auto p = graph::partition_recursive_bisection(g, 64);
    benchmark::DoNotOptimize(p.part.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_PartitionBisection)->Arg(64)->Arg(128);

// One DistLayout build at the elastic-ldoor-p64 shape (ldoorp, P = 64;
// run_elastic builds three inside each solve) and the ds-bone-p256 shape
// (bone010p, P = 256). Matrix and partition are made once, outside the
// timed loop.
void BM_DistLayout(benchmark::State& state, const char* matrix, int procs) {
  const auto a = sparse::make_proxy(matrix, 1.0).a;
  const auto part = graph::partition_recursive_bisection(
      graph::Graph::from_matrix_structure(a), procs);
  for (auto _ : state) {
    const dist::DistLayout layout(a, part);
    benchmark::DoNotOptimize(layout.rank(0).a_local.nnz());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK_CAPTURE(BM_DistLayout, ldoorp_p64, "ldoorp", 64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DistLayout, bone010p_p256, "bone010p", 256)
    ->Unit(benchmark::kMillisecond);

void BM_DistStep(benchmark::State& state) {
  const auto method = static_cast<dist::DistMethod>(state.range(0));
  auto a = bench_matrix(96);
  util::Rng rng(3);
  std::vector<double> b(static_cast<std::size_t>(a.rows()), 0.0);
  std::vector<double> x0(b.size());
  rng.fill_uniform(x0, -1.0, 1.0);
  sparse::normalize_initial_residual(a, b, x0);
  auto g = graph::Graph::from_matrix_structure(a);
  auto part = graph::partition_recursive_bisection(g, 128);
  dist::DistLayout layout(a, part);
  const dist::DistRunOptions opt;
  dist::RunHarness h(method, layout, b, x0, opt);
  for (auto _ : state) {
    auto stats = h.solver().step();
    benchmark::DoNotOptimize(stats.relaxations);
  }
  state.SetLabel(dist::method_name(method));
}
BENCHMARK(BM_DistStep)
    ->Arg(static_cast<int>(dist::DistMethod::kBlockJacobi))
    ->Arg(static_cast<int>(dist::DistMethod::kParallelSouthwell))
    ->Arg(static_cast<int>(dist::DistMethod::kDistributedSouthwell));

void BM_WireEncode(benchmark::State& state) {
  const auto nb = static_cast<std::size_t>(state.range(0));
  std::vector<double> out(wire::encoded_doubles(
      wire::RecordType::kSolveUpdate, nb));
  for (auto _ : state) {
    auto rec = wire::begin_record(wire::RecordType::kSolveUpdate, 0.5, 0.25,
                                  out, nb);
    for (std::size_t i = 0; i < nb; ++i) {
      rec.dx[i] = static_cast<double>(i);
      rec.rb[i] = static_cast<double>(i) * 0.5;
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_WireEncode)->Arg(8)->Arg(64);

void BM_WireDecode(benchmark::State& state) {
  const auto nb = static_cast<std::size_t>(state.range(0));
  std::vector<double> buf(wire::encoded_doubles(
      wire::RecordType::kSolveUpdate, nb));
  auto enc = wire::begin_record(wire::RecordType::kSolveUpdate, 0.5, 0.25,
                                buf, nb);
  for (std::size_t i = 0; i < nb; ++i) enc.dx[i] = enc.rb[i] = 1.0;
  double sink = 0.0;
  for (auto _ : state) {
    const auto rec = wire::decode_record(wire::Family::kEstimate, buf, nb);
    sink += rec.norm2 + rec.dx[0] + rec.rb[nb - 1];
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_WireDecode)->Arg(8)->Arg(64);

void BM_Checksum64(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> words(n);
  util::Rng rng(4);
  for (auto& w : words) w = rng.next_u64();
  const auto bytes = std::as_bytes(std::span<const std::uint64_t>(words));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::checksum64({}, bytes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
// 62 words: the mean envelope of the elastic-ldoor-p64 suite workload;
// 140 600: about one of its checkpoints up to format v4, which carried the
// whole run state (a v5 checkpoint, x and the runtime cursors, is about
// 57 350 words).
BENCHMARK(BM_Checksum64)->Arg(62)->Arg(140600);

/// A DS checkpoint of a 256x256 Poisson problem on 64 ranks after four
/// steps: the 65 536-word iterate plus the runtime cursors, about 65.8k
/// words, a little above an elastic-ldoor-p64 checkpoint (57.4k words).
elastic::Checkpoint bench_checkpoint() {
  auto a = bench_matrix(256);
  util::Rng rng(5);
  std::vector<double> b(static_cast<std::size_t>(a.rows()), 0.0);
  std::vector<double> x0(b.size());
  rng.fill_uniform(x0, -1.0, 1.0);
  sparse::normalize_initial_residual(a, b, x0);
  const auto part = graph::partition_recursive_bisection(
      graph::Graph::from_matrix_structure(a), 64);
  dist::DistLayout layout(a, part);
  const dist::DistRunOptions opt;
  const auto method = dist::DistMethod::kDistributedSouthwell;
  dist::RunHarness h(method, layout, b, x0, opt);
  const int steps = 4;
  for (int k = 0; k < steps; ++k) h.solver().step();
  elastic::Checkpoint c;
  c.num_ranks = h.runtime().num_ranks();
  c.method = static_cast<int>(method);
  c.epoch = h.runtime().epochs_completed();
  c.step = steps;
  c.runtime = h.runtime().capture_state();
  c.solver = h.solver().capture_state();
  return c;
}

void BM_CheckpointEncode(benchmark::State& state) {
  const elastic::Checkpoint c = bench_checkpoint();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto buf = elastic::encode(c);
    bytes = buf.size();
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CheckpointEncode);

void BM_CheckpointDecode(benchmark::State& state) {
  const auto buf = elastic::encode(bench_checkpoint());
  for (auto _ : state) {
    const elastic::Checkpoint c = elastic::decode(buf);
    benchmark::DoNotOptimize(c.solver.x.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_CheckpointDecode);

void BM_ChannelStaging(benchmark::State& state) {
  // put()-with-copy vs stage()-in-place for one epoch of boundary traffic
  // between two ranks (range(1) selects the path). The pools make both
  // allocation-free once warm; stage() additionally skips the memcpy at
  // put time (the fence's delivery copy remains in both).
  const bool use_stage = state.range(1) != 0;
  const auto nb = static_cast<std::size_t>(state.range(0));
  // A two-rank stack whose solver never steps: only its runtime is driven.
  const auto a = bench_matrix(2);
  dist::DistLayout layout(
      a, graph::partition_recursive_bisection(
             graph::Graph::from_matrix_structure(a), 2));
  const std::vector<double> zeros(static_cast<std::size_t>(a.rows()), 0.0);
  const dist::DistRunOptions opt;
  dist::RunHarness h(dist::DistMethod::kBlockJacobi, layout, zeros, zeros,
                     opt);
  simmpi::Runtime& rt = h.runtime();
  std::vector<double> payload(nb, 1.5);
  for (auto _ : state) {
    if (use_stage) {
      auto out = rt.stage(0, 1, simmpi::MsgTag::kSolve, nb);
      for (std::size_t i = 0; i < nb; ++i) out[i] = 1.5;
    } else {
      rt.put(0, 1, simmpi::MsgTag::kSolve, payload);
    }
    rt.fence();
    rt.consume(1);
  }
  state.SetLabel(use_stage ? "stage" : "put");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(nb));
}
BENCHMARK(BM_ChannelStaging)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({1024, 0})
    ->Args({1024, 1});

}  // namespace
}  // namespace dsouth

BENCHMARK_MAIN();
