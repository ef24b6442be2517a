/// Tests for node-aware hierarchical communication (DESIGN.md §13,
/// docs/communication.md): NodeTopology construction and deterministic
/// leader election, the per-node-pair channel counts that size forward
/// frames, the runtime's tiered hop accounting (hand-computed byte math),
/// the core invariant that routing never changes what the wire *delivers*
/// (solver results bit-identical with the topology off, on as a
/// classifier, and on with leader routing; flat topologies byte-identical
/// to no topology), cross-backend bit-identity, composition with faults /
/// async delivery, and the analyzer's tiered model reconstruction + metric
/// cross-checks.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/run_trace.hpp"
#include "dist/driver.hpp"
#include "dist/layout.hpp"
#include "graph/partition.hpp"
#include "simmpi/node_topology.hpp"
#include "simmpi/runtime.hpp"
#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "trace/export.hpp"
#include "util/rng.hpp"
#include "wire/comm_plan.hpp"

namespace dsouth {
namespace {

using sparse::CsrMatrix;
using sparse::index_t;
using sparse::value_t;

// ---------------------------------------------------------------------------
// NodeTopology: construction, leader election, degeneracy.

TEST(NodeTopology, RanksPerNodePacksConsecutiveBlocks) {
  const auto topo = simmpi::NodeTopology::ranks_per_node(10, 4);
  EXPECT_EQ(topo.num_ranks(), 10);
  EXPECT_EQ(topo.num_nodes(), 3);  // 4 + 4 + 2
  EXPECT_FALSE(topo.is_flat());
  for (int r = 0; r < 10; ++r) EXPECT_EQ(topo.node_of(r), r / 4);
  // Leaders are deterministically the lowest rank on each node.
  EXPECT_EQ(topo.leader_of(0), 0);
  EXPECT_EQ(topo.leader_of(1), 4);
  EXPECT_EQ(topo.leader_of(2), 8);
  EXPECT_TRUE(topo.same_node(4, 7));
  EXPECT_FALSE(topo.same_node(3, 4));
}

TEST(NodeTopology, FlatTopologiesAreDetected) {
  EXPECT_TRUE(simmpi::NodeTopology::ranks_per_node(4, 1).is_flat());
  EXPECT_TRUE(simmpi::NodeTopology::ranks_per_node(1, 4).is_flat());
  EXPECT_FALSE(simmpi::NodeTopology::ranks_per_node(4, 2).is_flat());
  // One node holding everything is not flat (all traffic is intra-node).
  EXPECT_FALSE(simmpi::NodeTopology::ranks_per_node(4, 4).is_flat());
}

TEST(NodeTopology, RuntimeTreatsFlatTopologyAsDetached) {
  simmpi::Runtime rt(4);
  const auto flat = simmpi::NodeTopology::ranks_per_node(4, 1);
  rt.set_node_topology(flat);
  EXPECT_EQ(rt.node_topology(), nullptr);
}

// ---------------------------------------------------------------------------
// Problem setup shared by the layout/driver tests.

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

// ---------------------------------------------------------------------------
// Per-node-pair channel counts (what the runtime sizes forward frames by).

TEST(NodePairChannelCounts, MatchBruteForceCountAndExcludeIntraNode) {
  auto p = make_problem(12, 8, 7);
  dist::DistLayout layout(p.a, p.part);
  const wire::CommPlan& plan = layout.comm_plan();
  for (const int per_node : {4, 3}) {
    SCOPED_TRACE(per_node);
    const auto topo = simmpi::NodeTopology::ranks_per_node(8, per_node);
    const auto nn = static_cast<std::size_t>(topo.num_nodes());
    const auto counts = wire::node_pair_channel_counts(plan, topo);
    ASSERT_EQ(counts.size(), nn * nn);
    // Brute force: every ordered rank pair (s, d) with d in s's peer list
    // is one directed channel of node pair (node_of(s), node_of(d)).
    std::vector<std::uint32_t> want(nn * nn, 0);
    std::uint32_t crossing = 0;
    for (int s = 0; s < plan.num_ranks(); ++s) {
      for (int d = 0; d < plan.num_ranks(); ++d) {
        bool peer = false;
        for (const auto& q : plan.peers(s)) peer = peer || q.rank == d;
        const int x = topo.node_of(s);
        const int y = topo.node_of(d);
        if (!peer || x == y) continue;
        ++want[static_cast<std::size_t>(x) * nn + static_cast<std::size_t>(y)];
        ++crossing;
      }
    }
    EXPECT_EQ(counts, want);
    for (std::size_t x = 0; x < nn; ++x) {
      EXPECT_EQ(counts[x * nn + x], 0u);  // same-node channels never count
    }
    EXPECT_GT(crossing, 0u);  // a bisected Poisson grid always crosses nodes
  }
}

// ---------------------------------------------------------------------------
// Runtime tier accounting: hand-computed hop and byte math.

TEST(NodeRuntime, TierAccountingMatchesHandComputedHops) {
  // 4 ranks on 2 nodes: node0 = {0, 1} (leader 0), node1 = {2, 3}
  // (leader 2). Pretend the plan has 4 channels per inter-node pair.
  const auto topo = simmpi::NodeTopology::ranks_per_node(4, 2);
  simmpi::Runtime rt(4);
  simmpi::NodeRoutingOptions nro;
  nro.route_via_leaders = true;
  nro.pair_channel_counts = {0, 4, 4, 0};
  rt.set_node_topology(topo, nro);
  ASSERT_NE(rt.node_topology(), nullptr);
  EXPECT_TRUE(rt.node_routing());

  // Two puts cross node0 -> node1 under one tag: a group of 2.
  rt.put(0, 2, simmpi::MsgTag::kSolve, std::vector<double>{1.0});
  rt.put(1, 3, simmpi::MsgTag::kSolve, std::vector<double>{2.0, 3.0});
  // One intra-node put: always a direct hop.
  rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{4.0});
  rt.fence();

  // Delivery is unchanged by routing (hop accounting only).
  ASSERT_EQ(rt.window(2).size(), 1u);
  EXPECT_EQ(rt.window(2)[0].source, 0);
  ASSERT_EQ(rt.window(3).size(), 1u);
  EXPECT_EQ(rt.window(3)[0].source, 1);
  ASSERT_EQ(rt.window(1).size(), 1u);

  const auto& cs = rt.stats();
  // Intra tier: relay-up 1 -> leader 0 (2 doubles = 32B), relay-down
  // leader 2 -> 3 (2 doubles = 32B), direct 0 -> 1 (1 double = 24B).
  EXPECT_EQ(cs.intra_messages(), 3u);
  EXPECT_EQ(cs.intra_bytes(), 32u + 32u + 24u);
  // Inter tier: one leader->leader frame. W = ceil(4/64) = 1 bitmap word;
  // bytes = message_bytes(1 magic + 1 word + 3 body doubles) = 16 + 40.
  EXPECT_EQ(cs.inter_messages(), 1u);
  EXPECT_EQ(cs.inter_bytes(), simmpi::message_bytes(5));
  EXPECT_EQ(cs.forward_frames(), 1u);
  EXPECT_EQ(cs.forwarded_records(), 2u);
}

TEST(NodeRuntime, SingleRecordGroupsShipBareAndClassifierChargesDirect) {
  const auto topo = simmpi::NodeTopology::ranks_per_node(4, 2);
  // Routing on: a lone inter-node put from a leader to a leader pays
  // exactly its direct cost (no frame overhead, no relays).
  {
    simmpi::Runtime rt(4);
    simmpi::NodeRoutingOptions nro;
    nro.pair_channel_counts = {0, 4, 4, 0};
    rt.set_node_topology(topo, nro);
    rt.put(0, 2, simmpi::MsgTag::kSolve, std::vector<double>{1.0});
    rt.fence();
    EXPECT_EQ(rt.stats().inter_messages(), 1u);
    EXPECT_EQ(rt.stats().inter_bytes(), simmpi::message_bytes(1));
    EXPECT_EQ(rt.stats().intra_messages(), 0u);
    EXPECT_EQ(rt.stats().forward_frames(), 1u);
    EXPECT_EQ(rt.stats().forwarded_records(), 1u);
  }
  // Routing off: the topology only classifies; every put is a direct hop
  // in its tier and no forwarding happens.
  {
    simmpi::Runtime rt(4);
    simmpi::NodeRoutingOptions nro;
    nro.route_via_leaders = false;
    rt.set_node_topology(topo, nro);
    EXPECT_FALSE(rt.node_routing());
    rt.put(1, 3, simmpi::MsgTag::kSolve, std::vector<double>{2.0, 3.0});
    rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{4.0});
    rt.fence();
    EXPECT_EQ(rt.stats().inter_messages(), 1u);
    EXPECT_EQ(rt.stats().inter_bytes(), simmpi::message_bytes(2));
    EXPECT_EQ(rt.stats().intra_messages(), 1u);
    EXPECT_EQ(rt.stats().intra_bytes(), simmpi::message_bytes(1));
    EXPECT_EQ(rt.stats().forward_frames(), 0u);
    EXPECT_EQ(rt.stats().forwarded_records(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Driver-level invariants.

std::string trace_bytes(const dist::DistRunResult& r) {
  EXPECT_TRUE(r.trace_log != nullptr);
  if (!r.trace_log) return {};
  std::ostringstream os;
  trace::write_jsonl(os, *r.trace_log, {});
  return os.str();
}

dist::DistRunOptions node_options(int ranks_per_node, bool route) {
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 30;
  opt.ranks_per_node = ranks_per_node;
  opt.node_route = route;
  return opt;
}

TEST(NodeDriver, TopologyNeverChangesSolverResults) {
  auto p = make_problem(12, 8, 17);
  for (auto m : {dist::DistMethod::kBlockJacobi,
                 dist::DistMethod::kMulticolorBlockGs,
                 dist::DistMethod::kParallelSouthwell,
                 dist::DistMethod::kDistributedSouthwell}) {
    dist::DistRunOptions flat;
    flat.max_parallel_steps = 30;
    auto base = dist::run_distributed(m, p.a, p.part, p.b, p.x0, flat);
    // 2 nodes x 4 ranks: big enough groups that aggregation strictly
    // shrinks bytes for every method (a group of N saves 16N - 24 - 8W
    // bytes, so pairs of puts alone would only break even).
    auto direct = dist::run_distributed(m, p.a, p.part, p.b, p.x0,
                                        node_options(4, /*route=*/false));
    auto routed = dist::run_distributed(m, p.a, p.part, p.b, p.x0,
                                        node_options(4, /*route=*/true));
    // Bit-identical trajectories: the topology re-prices the wire, it
    // never changes what the wire delivers.
    EXPECT_EQ(base.residual_norm, direct.residual_norm)
        << dist::method_name(m);
    EXPECT_EQ(base.residual_norm, routed.residual_norm)
        << dist::method_name(m);
    EXPECT_EQ(base.final_x, direct.final_x) << dist::method_name(m);
    EXPECT_EQ(base.final_x, routed.final_x) << dist::method_name(m);
    // Logical comm totals (what solvers sent) are identical too.
    EXPECT_EQ(base.comm_totals.msgs, routed.comm_totals.msgs);
    EXPECT_EQ(base.comm_totals.bytes, routed.comm_totals.bytes);
    // Tier totals exist exactly when a topology was attached.
    EXPECT_FALSE(base.node_totals.has_value());
    ASSERT_TRUE(direct.node_totals.has_value());
    ASSERT_TRUE(routed.node_totals.has_value());
    // Routing strictly reduces the inter-node tier on both axes and never
    // invents inter-node traffic.
    EXPECT_LT(routed.node_totals->msgs_inter, direct.node_totals->msgs_inter)
        << dist::method_name(m);
    EXPECT_LT(routed.node_totals->bytes_inter,
              direct.node_totals->bytes_inter)
        << dist::method_name(m);
    EXPECT_GT(routed.node_totals->forward_frames, 0u);
    // The classifier's two tiers partition the flat physical traffic.
    EXPECT_EQ(direct.node_totals->msgs_intra + direct.node_totals->msgs_inter,
              base.comm_totals.msgs);
  }
}

TEST(NodeDriver, FlatTopologyTraceIsByteIdenticalToNoTopology) {
  auto p = make_problem(12, 6, 11);
  dist::DistRunOptions none;
  none.max_parallel_steps = 25;
  none.trace.enabled = true;
  auto flat = none;
  flat.ranks_per_node = 1;  // flat: one rank per node
  auto a = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                 p.a, p.part, p.b, p.x0, none);
  auto b = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                 p.a, p.part, p.b, p.x0, flat);
  EXPECT_FALSE(b.node_totals.has_value());
  EXPECT_EQ(trace_bytes(a), trace_bytes(b));
}

TEST(NodeDriver, RoutedRunsAreBitIdenticalAcrossBackends) {
  auto p = make_problem(12, 8, 17);
  for (auto m : {dist::DistMethod::kParallelSouthwell,
                 dist::DistMethod::kDistributedSouthwell}) {
    auto seq_opt = node_options(2, true);
    seq_opt.trace.enabled = true;
    auto thr_opt = seq_opt;
    thr_opt.backend = simmpi::BackendKind::kThreadPool;
    thr_opt.num_threads = 3;
    auto a = dist::run_distributed(m, p.a, p.part, p.b, p.x0, seq_opt);
    auto b = dist::run_distributed(m, p.a, p.part, p.b, p.x0, thr_opt);
    EXPECT_EQ(a.residual_norm, b.residual_norm) << dist::method_name(m);
    EXPECT_EQ(a.final_x, b.final_x) << dist::method_name(m);
    ASSERT_TRUE(a.node_totals.has_value());
    ASSERT_TRUE(b.node_totals.has_value());
    EXPECT_EQ(a.node_totals->msgs_inter, b.node_totals->msgs_inter);
    EXPECT_EQ(a.node_totals->bytes_inter, b.node_totals->bytes_inter);
    EXPECT_EQ(a.node_totals->forwarded_records,
              b.node_totals->forwarded_records);
    // The whole event stream (hop events included) is byte-identical.
    EXPECT_EQ(trace_bytes(a), trace_bytes(b)) << dist::method_name(m);
  }
}

// ---------------------------------------------------------------------------
// Composition with the other comm-stack features.

TEST(NodeComposition, RoutingComposesWithFaultInjection) {
  auto p = make_problem(14, 12, 31);
  auto base = node_options(3, true);
  base.max_parallel_steps = 150;
  base.watchdog.enabled = true;
  base.resilience.enabled = true;  // lost records need refresh to converge
  auto faulty = base;
  faulty.faults.defaults.drop_probability = 0.02;
  faulty.faults.defaults.duplicate_probability = 0.01;
  auto clean = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                     p.a, p.part, p.b, p.x0, base);
  auto r = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                 p.a, p.part, p.b, p.x0, faulty);
  EXPECT_FALSE(r.watchdog.fired) << r.watchdog.reason;
  EXPECT_LT(r.residual_norm.back(), 0.05);
  ASSERT_TRUE(r.fault_summary.has_value());
  EXPECT_GT(r.fault_summary->msgs_dropped, 0u);
  ASSERT_TRUE(r.node_totals.has_value());
  // Fault draws are identical with or without a topology (the hop
  // pre-pass re-asks the same stateless hash), so the faulty run still
  // converges and its tier totals stay well-formed.
  EXPECT_GT(r.node_totals->msgs_inter, 0u);
  EXPECT_GT(clean.node_totals->forward_frames, 0u);
}

TEST(NodeComposition, RoutingComposesWithAsyncDelivery) {
  auto p = make_problem(12, 8, 17);
  auto opt = node_options(2, true);
  opt.async = true;
  opt.async_min_latency = 0;
  opt.async_max_latency = 3;
  opt.max_staleness = 4;
  auto bare = opt;
  bare.ranks_per_node = 0;  // same async run without a topology
  auto a = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                 p.a, p.part, p.b, p.x0, opt);
  auto b = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                 p.a, p.part, p.b, p.x0, bare);
  // The topology changes neither the async trajectory nor the delivery
  // schedule.
  EXPECT_EQ(a.residual_norm, b.residual_norm);
  EXPECT_EQ(a.final_x, b.final_x);
  ASSERT_TRUE(a.async_totals.has_value());
  ASSERT_TRUE(b.async_totals.has_value());
  EXPECT_EQ(a.async_totals->delivered, b.async_totals->delivered);
  EXPECT_EQ(a.async_totals->staleness_sum, b.async_totals->staleness_sum);
  ASSERT_TRUE(a.node_totals.has_value());
  EXPECT_GT(a.node_totals->forward_frames, 0u);
}

// ---------------------------------------------------------------------------
// Analyzer: tiered reconstruction and metric cross-checks.

TEST(NodeAnalysis, TieredCriticalPathReproducesModeledSeconds) {
  auto p = make_problem(12, 8, 17);
  auto opt = node_options(2, true);
  opt.trace.enabled = true;
  auto r = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                 p.a, p.part, p.b, p.x0, opt);
  ASSERT_TRUE(r.trace_log != nullptr);
  auto run = analysis::from_trace_log(*r.trace_log, "node routed");
  const auto cp = analysis::analyze_run(run).critical_path;
  EXPECT_TRUE(cp.tiered);
  EXPECT_TRUE(cp.model_matches)
      << "tiered critical path must rebuild every fence's modeled seconds "
         "bit-exactly";
}

TEST(NodeAnalysis, NodeReportMatchesRuntimeTotalsAndMetrics) {
  auto p = make_problem(12, 8, 17);
  auto opt = node_options(2, true);
  opt.trace.enabled = true;
  auto r = dist::run_distributed(dist::DistMethod::kParallelSouthwell,
                                 p.a, p.part, p.b, p.x0, opt);
  ASSERT_TRUE(r.trace_log != nullptr);
  ASSERT_TRUE(r.node_totals.has_value());
  auto run = analysis::from_trace_log(*r.trace_log, "node routed");
  const auto rep = analysis::analyze_run(run).node;
  EXPECT_TRUE(rep.any());
  // Event tallies reproduce the runtime's CommStats tier totals...
  EXPECT_EQ(rep.msgs_intra, r.node_totals->msgs_intra);
  EXPECT_EQ(rep.bytes_intra, r.node_totals->bytes_intra);
  EXPECT_EQ(rep.msgs_inter, r.node_totals->msgs_inter);
  EXPECT_EQ(rep.bytes_inter, r.node_totals->bytes_inter);
  EXPECT_EQ(rep.forwarded_records, r.node_totals->forwarded_records);
  EXPECT_EQ(rep.hops_by_kind[trace::kHopInterLeader],
            r.node_totals->forward_frames);
  // ...and the simmpi.node_* metrics the tracer captured agree as well.
  const auto* msgs_intra = run.find_metric("simmpi.node_msgs_intra");
  ASSERT_NE(msgs_intra, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(msgs_intra->total()), rep.msgs_intra);
  const auto* frames_metric = run.find_metric("simmpi.node_forward_frames");
  ASSERT_NE(frames_metric, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(frames_metric->total()),
            rep.hops_by_kind[trace::kHopInterLeader]);
  // Leader pairs name actual leaders and account for every frame.
  const auto topo = simmpi::NodeTopology::ranks_per_node(8, 2);
  std::uint64_t frames = 0;
  for (const auto& lp : rep.leader_pairs) {
    EXPECT_EQ(topo.leader_of(topo.node_of(lp.src)), lp.src);
    EXPECT_EQ(topo.leader_of(topo.node_of(lp.dst)), lp.dst);
    frames += lp.frames;
  }
  EXPECT_EQ(frames, rep.hops_by_kind[trace::kHopInterLeader]);
}

}  // namespace
}  // namespace dsouth
