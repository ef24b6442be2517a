/// Tests for asynchronous delivery (src/simmpi/delivery.hpp) and epochless
/// asynchronous execution: latency draws are stateless and
/// seed-dependent, the runtime matures messages on the virtual clock and
/// enforces the staleness bound without wrapping, a staleness-0 setting
/// reduces byte-identically to bulk-synchronous delivery, async runs are
/// bit-identical across execution backends (traces included), deliver
/// events agree with the simmpi.async_* metrics, every solver converges
/// relax-on-arrival, and asynchrony composes with fault injection.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "dist/driver.hpp"
#include "faults/fault_plan.hpp"
#include "graph/partition.hpp"
#include "simmpi/runtime.hpp"
#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "trace/export.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsouth {
namespace {

using sparse::CsrMatrix;
using sparse::index_t;
using sparse::value_t;

// ---------------------------------------------------------------------------
// AsyncDelivery draw semantics.

TEST(AsyncDelivery, LatencyDrawsAreStatelessBoundedAndSeedDependent) {
  simmpi::AsyncDelivery d1;
  d1.min_latency_epochs = 1;
  d1.max_latency_epochs = 4;
  const simmpi::AsyncDelivery d2 = d1;
  simmpi::AsyncDelivery d3 = d1;
  d3.seed ^= 1;

  bool seed_changed_something = false;
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    const auto a = d1.extra_latency(7, 1, 2, seq);
    EXPECT_GE(a, 1u);
    EXPECT_LE(a, 4u);
    // Stateless: call order and instance independent.
    EXPECT_EQ(a, d1.extra_latency(7, 1, 2, seq));
    EXPECT_EQ(a, d2.extra_latency(7, 1, 2, seq));
    if (a != d3.extra_latency(7, 1, 2, seq)) seed_changed_something = true;
  }
  EXPECT_TRUE(seed_changed_something);
}

TEST(AsyncDelivery, DegenerateWindowIsConstant) {
  simmpi::AsyncDelivery d;
  d.min_latency_epochs = 2;
  d.max_latency_epochs = 2;
  for (std::uint64_t seq = 0; seq < 50; ++seq) {
    EXPECT_EQ(d.extra_latency(0, 0, 1, seq), 2u);
  }
}

TEST(AsyncDelivery, RuntimeRejectsAnInvertedLatencyWindow) {
  simmpi::Runtime rt(2);
  simmpi::AsyncDelivery d;
  d.min_latency_epochs = 3;
  d.max_latency_epochs = 2;
  EXPECT_THROW(rt.set_async_delivery(d), util::CheckError);
  d.min_latency_epochs = -1;
  EXPECT_THROW(rt.set_async_delivery(d), util::CheckError);
  EXPECT_FALSE(rt.async_delivery());
}

// ---------------------------------------------------------------------------
// Runtime maturation on the virtual clock.

/// Async delivery with a fixed latency of `latency` extra epochs.
simmpi::AsyncDelivery fixed_latency(int latency, std::uint64_t staleness) {
  simmpi::AsyncDelivery d;
  d.min_latency_epochs = latency;
  d.max_latency_epochs = latency;
  d.max_staleness = staleness;
  return d;
}

TEST(AsyncRuntime, MessagesMatureAfterTheirLatencyDraw) {
  simmpi::Runtime rt(2);
  rt.set_async_delivery(fixed_latency(2, 8));  // always +2 epochs
  EXPECT_TRUE(rt.async_delivery());

  rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{1.0, 2.0});
  rt.fence();  // closes epoch 0: message targets epoch 2
  EXPECT_TRUE(rt.window(1).empty());
  EXPECT_EQ(rt.delayed_in_flight(), 1u);
  rt.fence();  // closes epoch 1: still in flight
  EXPECT_TRUE(rt.window(1).empty());
  rt.fence();  // closes epoch 2: matured
  ASSERT_EQ(rt.window(1).size(), 1u);
  EXPECT_EQ(rt.window(1)[0].source, 0);
  EXPECT_EQ(rt.delayed_in_flight(), 0u);
  EXPECT_EQ(rt.stats().async_delivered(), 1u);
  EXPECT_EQ(rt.stats().async_staleness_sum(), 2u);
  EXPECT_EQ(rt.stats().async_staleness_max(), 2u);
}

TEST(AsyncRuntime, StalenessBoundClampsTheDraw) {
  simmpi::Runtime rt(2);
  rt.set_async_delivery(fixed_latency(10, 3));
  rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{1.0});
  for (int e = 0; e < 3; ++e) {
    rt.fence();
    EXPECT_TRUE(rt.window(1).empty()) << "epoch " << e;
  }
  rt.fence();  // closes epoch 3 = staged(0) + max_staleness(3)
  ASSERT_EQ(rt.window(1).size(), 1u);
  EXPECT_EQ(rt.stats().async_staleness_max(), 3u);
}

TEST(AsyncRuntime, HugeStalenessBoundNeverDeliversEarly) {
  // A bound near 2^64 must not wrap the clamp: every message still lands
  // exactly its 2-epoch draw after it was staged.
  simmpi::Runtime rt(2);
  rt.set_async_delivery(
      fixed_latency(2, std::numeric_limits<std::uint64_t>::max()));
  for (int e = 0; e < 6; ++e) {
    if (e < 4) {
      rt.put(0, 1, simmpi::MsgTag::kSolve,
             std::vector<double>{static_cast<double>(e)});
    }
    rt.fence();  // closes epoch e
    if (e < 2) {
      EXPECT_TRUE(rt.window(1).empty()) << "epoch " << e;
      continue;
    }
    ASSERT_EQ(rt.window(1).size(), 1u) << "epoch " << e;
    EXPECT_EQ(rt.window(1)[0].payload[0], static_cast<double>(e - 2));
    rt.consume(1);
  }
  EXPECT_EQ(rt.stats().async_delivered(), 4u);
  EXPECT_EQ(rt.stats().async_staleness_max(), 2u);
}

TEST(AsyncRuntime, StalenessZeroDegeneratesToBulkSynchronous) {
  simmpi::AsyncDelivery d;
  d.min_latency_epochs = 0;
  d.max_latency_epochs = 5;  // draws are irrelevant: the bound is 0
  d.max_staleness = 0;
  simmpi::Runtime rt(2);
  rt.set_async_delivery(d);
  EXPECT_FALSE(rt.async_delivery());
  rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{1.0});
  rt.fence();
  ASSERT_EQ(rt.window(1).size(), 1u);  // next fence, the BSP contract
  EXPECT_EQ(rt.stats().async_delivered(), 0u);
}

TEST(AsyncRuntime, DrainDelayedFlushesMaturingTraffic) {
  simmpi::Runtime rt(2);
  rt.set_async_delivery(fixed_latency(3, 5));
  rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{4.0});
  rt.fence();
  EXPECT_EQ(rt.delayed_in_flight(), 1u);
  rt.drain_delayed();
  EXPECT_EQ(rt.delayed_in_flight(), 0u);
  ASSERT_EQ(rt.window(1).size(), 1u);
  EXPECT_EQ(rt.stats().async_delivered(), 1u);
}

// ---------------------------------------------------------------------------
// Driver-level identity, reduction and reproducibility.

struct Problem {
  CsrMatrix a;
  std::vector<value_t> b, x0;
  graph::Partition part;
};

Problem make_problem(index_t nx, index_t ranks, std::uint64_t seed) {
  Problem p;
  p.a = sparse::symmetric_unit_diagonal_scale(sparse::poisson2d_5pt(nx, nx)).a;
  p.b.assign(static_cast<std::size_t>(p.a.rows()), 0.0);
  p.x0.resize(p.b.size());
  util::Rng rng(seed);
  rng.fill_uniform(p.x0, -1.0, 1.0);
  sparse::normalize_initial_residual(p.a, p.b, p.x0);
  p.part = graph::partition_recursive_bisection(
      graph::Graph::from_matrix_structure(p.a), ranks);
  return p;
}

std::string trace_bytes(const dist::DistRunResult& r) {
  EXPECT_TRUE(r.trace_log != nullptr);
  if (!r.trace_log) return {};
  std::ostringstream os;
  trace::write_jsonl(os, *r.trace_log, {});
  return os.str();
}

dist::DistRunOptions async_options() {
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 30;
  opt.async = true;
  opt.async_min_latency = 0;
  opt.async_max_latency = 3;
  opt.max_staleness = 4;
  return opt;
}

TEST(AsyncDriver, AsyncRunsAreBitIdenticalAcrossBackends) {
  auto p = make_problem(12, 8, 17);
  for (auto m : {dist::DistMethod::kBlockJacobi,
                 dist::DistMethod::kParallelSouthwell,
                 dist::DistMethod::kDistributedSouthwell,
                 dist::DistMethod::kMulticolorBlockGs}) {
    auto seq_opt = async_options();
    seq_opt.trace.enabled = true;
    seq_opt.backend = simmpi::BackendKind::kSequential;
    auto thr_opt = seq_opt;
    thr_opt.backend = simmpi::BackendKind::kThreadPool;
    thr_opt.num_threads = 3;
    auto a = dist::run_distributed(m, p.a, p.part, p.b, p.x0, seq_opt);
    auto b = dist::run_distributed(m, p.a, p.part, p.b, p.x0, thr_opt);
    EXPECT_EQ(a.residual_norm, b.residual_norm) << dist::method_name(m);
    EXPECT_EQ(a.final_x, b.final_x) << dist::method_name(m);
    ASSERT_TRUE(a.async_totals.has_value());
    ASSERT_TRUE(b.async_totals.has_value());
    EXPECT_EQ(a.async_totals->delivered, b.async_totals->delivered);
    EXPECT_EQ(a.async_totals->staleness_sum, b.async_totals->staleness_sum);
    EXPECT_EQ(a.async_totals->staleness_max, b.async_totals->staleness_max);
    EXPECT_EQ(a.async_totals->epochs, b.async_totals->epochs);
    EXPECT_GT(a.async_totals->delivered, 0u) << dist::method_name(m);
    // The runtime-enforced bound held.
    EXPECT_LE(a.async_totals->staleness_max, 4u) << dist::method_name(m);
    // The whole event stream (deliver events included) is byte-identical.
    EXPECT_EQ(trace_bytes(a), trace_bytes(b)) << dist::method_name(m);
  }
}

TEST(AsyncDriver, StalenessZeroReducesToResilientBulkSynchronous) {
  auto p = make_problem(12, 8, 17);
  for (auto m : {dist::DistMethod::kParallelSouthwell,
                 dist::DistMethod::kDistributedSouthwell}) {
    auto async0 = async_options();
    async0.max_staleness = 0;  // degenerate policy: BSP timing
    async0.trace.enabled = true;
    // The async driver path auto-enables resilience, so the reference run
    // is a plain bulk-synchronous run with resilience on.
    dist::DistRunOptions bsp;
    bsp.max_parallel_steps = async0.max_parallel_steps;
    bsp.resilience.enabled = true;
    bsp.trace.enabled = true;
    auto a = dist::run_distributed(m, p.a, p.part, p.b, p.x0, async0);
    auto b = dist::run_distributed(m, p.a, p.part, p.b, p.x0, bsp);
    EXPECT_EQ(a.residual_norm, b.residual_norm) << dist::method_name(m);
    EXPECT_EQ(a.final_x, b.final_x) << dist::method_name(m);
    EXPECT_EQ(a.comm_totals.msgs, b.comm_totals.msgs);
    EXPECT_EQ(a.comm_totals.bytes, b.comm_totals.bytes);
    EXPECT_FALSE(a.async_totals.has_value());
    EXPECT_EQ(trace_bytes(a), trace_bytes(b)) << dist::method_name(m);
  }
}

TEST(AsyncDriver, DeliverEventsMatchAsyncMetrics) {
  auto p = make_problem(12, 8, 17);
  auto opt = async_options();
  opt.trace.enabled = true;
  auto r = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                 p.a, p.part, p.b, p.x0, opt);
  ASSERT_TRUE(r.trace_log != nullptr);
  ASSERT_TRUE(r.async_totals.has_value());
  std::uint64_t deliver_events = 0;
  std::uint64_t staleness_sum = 0;
  std::uint64_t staleness_max = 0;
  for (const auto& e : r.trace_log->events) {
    if (e.kind != trace::EventKind::kDeliver) continue;
    ++deliver_events;
    const auto s = static_cast<std::uint64_t>(e.a0);
    staleness_sum += s;
    if (s > staleness_max) staleness_max = s;
  }
  EXPECT_GT(deliver_events, 0u);
  EXPECT_EQ(deliver_events, r.async_totals->delivered);
  EXPECT_EQ(staleness_sum, r.async_totals->staleness_sum);
  EXPECT_EQ(staleness_max, r.async_totals->staleness_max);
}

// ---------------------------------------------------------------------------
// Convergence: every method keeps converging relax-on-arrival, and
// asynchrony composes with fault injection.

class AsyncConvergence : public ::testing::TestWithParam<dist::DistMethod> {};

TEST_P(AsyncConvergence, ConvergesRelaxOnArrival) {
  auto p = make_problem(14, 12, 31);
  auto opt = async_options();
  opt.max_parallel_steps = 120;
  opt.max_staleness = 6;
  opt.watchdog.enabled = true;
  auto r = dist::run_distributed(GetParam(), p.a, p.part, p.b, p.x0, opt);
  EXPECT_FALSE(r.watchdog.fired)
      << dist::method_name(GetParam()) << ": " << r.watchdog.reason;
  EXPECT_LT(r.residual_norm.back(), 0.05) << dist::method_name(GetParam());
  ASSERT_TRUE(r.async_totals.has_value());
  EXPECT_GT(r.async_totals->delivered, 0u);
  EXPECT_LE(r.async_totals->staleness_max, 6u);
}

INSTANTIATE_TEST_SUITE_P(
    Methods, AsyncConvergence,
    ::testing::Values(dist::DistMethod::kBlockJacobi,
                      dist::DistMethod::kParallelSouthwell,
                      dist::DistMethod::kDistributedSouthwell,
                      dist::DistMethod::kMulticolorBlockGs),
    [](const auto& info) {
      return std::string(dist::method_name(info.param));
    });

TEST(AsyncFaults, ConvergesUnderDropsAndDuplication) {
  auto p = make_problem(14, 12, 31);
  auto opt = async_options();
  opt.max_parallel_steps = 150;
  opt.faults.defaults.drop_probability = 0.02;
  opt.faults.defaults.duplicate_probability = 0.01;
  opt.watchdog.enabled = true;
  for (auto m : {dist::DistMethod::kBlockJacobi,
                 dist::DistMethod::kDistributedSouthwell}) {
    auto r = dist::run_distributed(m, p.a, p.part, p.b, p.x0, opt);
    EXPECT_FALSE(r.watchdog.fired)
        << dist::method_name(m) << ": " << r.watchdog.reason;
    EXPECT_LT(r.residual_norm.back(), 0.05) << dist::method_name(m);
    ASSERT_TRUE(r.fault_summary.has_value());
    EXPECT_GT(r.fault_summary->msgs_dropped, 0u);
    ASSERT_TRUE(r.async_totals.has_value());
    EXPECT_GT(r.async_totals->delivered, 0u);
  }
}

}  // namespace
}  // namespace dsouth
