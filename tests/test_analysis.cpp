/// Tests for the trace-analysis layer (src/analysis): the golden P=4
/// Distributed Southwell run the ISSUE acceptance criteria name — comm
/// matrix totals equal to CommStats exactly, critical-path terms equal to
/// a hand-computed α–β–γ breakdown, byte-identical analyzer output across
/// execution backends — plus JSONL round-trip fidelity and the timeline /
/// convergence invariants.

#include "analysis/analyzer.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/render.hpp"
#include "analysis/run_trace.hpp"
#include "dist/driver.hpp"
#include "elastic/elastic.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "trace/export.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace dsouth::analysis {
namespace {

using dist::DistMethod;
using dist::DistRunOptions;
using dist::DistRunResult;
using sparse::index_t;
using sparse::value_t;

struct Problem {
  sparse::CsrMatrix a;
  std::vector<value_t> b;
  std::vector<value_t> x0;
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
  auto g = graph::Graph::from_matrix_structure(p.a);
  p.part = graph::partition_recursive_bisection(g, ranks);
  return p;
}

/// The golden run: P=4 Distributed Southwell, 12 steps, traced.
DistRunResult golden_ds_run(simmpi::BackendKind backend =
                                simmpi::BackendKind::kSequential) {
  auto p = make_problem(12, 4, 77);
  DistRunOptions opt;
  opt.max_parallel_steps = 12;
  opt.trace.enabled = true;
  opt.backend = backend;
  if (backend == simmpi::BackendKind::kThreadPool) opt.num_threads = 3;
  return dist::run_distributed(DistMethod::kDistributedSouthwell, p.a, p.part,
                               p.b, p.x0, opt);
}

// ---------------------------------------------------------------------------
// (b) Comm matrix vs CommStats: exact.
// ---------------------------------------------------------------------------

TEST(CommMatrix, TotalsEqualCommStatsExactly) {
  const auto r = golden_ds_run();
  ASSERT_TRUE(r.trace_log);
  const auto run = from_trace_log(*r.trace_log, "golden");
  const auto cm = analyze_run(run).comm;

  EXPECT_EQ(cm.total_msgs, r.comm_totals.msgs);
  EXPECT_EQ(cm.total_bytes, r.comm_totals.bytes);
  EXPECT_EQ(cm.total_by_tag[static_cast<int>(simmpi::MsgTag::kSolve)],
            r.comm_totals.msgs_solve);
  EXPECT_EQ(cm.total_by_tag[static_cast<int>(simmpi::MsgTag::kResidual)],
            r.comm_totals.msgs_residual);
  EXPECT_EQ(cm.total_by_tag[static_cast<int>(simmpi::MsgTag::kOther)],
            r.comm_totals.msgs_other);
  // The paper's comm-cost metric (msgs / P) falls out of the matrix too —
  // Table 3's breakdown reproduced from the trace alone.
  EXPECT_EQ(cm.comm_cost(), r.comm_cost.back());
  EXPECT_EQ(cm.comm_cost(simmpi::MsgTag::kSolve), r.solve_comm.back());
  EXPECT_EQ(cm.comm_cost(simmpi::MsgTag::kResidual), r.res_comm.back());
}

TEST(CommMatrix, MatrixCellsAreConsistentWithTotals) {
  const auto r = golden_ds_run();
  const auto run = from_trace_log(*r.trace_log, "golden");
  const auto cm = analyze_run(run).comm;
  ASSERT_EQ(cm.num_ranks, 4);
  ASSERT_FALSE(cm.pairs.empty());

  std::uint64_t msgs = 0, bytes = 0;
  for (std::size_t i = 0; i < cm.pairs.size(); ++i) {
    const auto& cell = cm.pairs[i];
    EXPECT_NE(cell.src, cell.dst) << "self-messages are impossible";
    EXPECT_GT(cell.msgs, 0u) << "only touched cells are stored";
    msgs += cell.msgs;
    bytes += cell.bytes;
    // Per-tag counts partition each cell's message count.
    std::uint64_t by_tag = 0;
    for (auto m : cell.msgs_by_tag) by_tag += m;
    EXPECT_EQ(by_tag, cell.msgs);
    // Sparse lookup round-trips, and the list is (src, dst) ascending.
    EXPECT_EQ(cm.find(cell.src, cell.dst), &cell);
    if (i > 0) {
      const auto& prev = cm.pairs[i - 1];
      EXPECT_TRUE(prev.src < cell.src ||
                  (prev.src == cell.src && prev.dst < cell.dst));
    }
  }
  EXPECT_EQ(msgs, cm.total_msgs);
  EXPECT_EQ(bytes, cm.total_bytes);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(cm.find(s, s), nullptr) << "self-messages are impossible";
  }
  // Hot pairs are exactly the touched cells, ranked msgs-descending.
  EXPECT_EQ(cm.hot_pairs.size(), cm.pairs.size());
  for (std::size_t i = 1; i < cm.hot_pairs.size(); ++i) {
    EXPECT_GE(cm.hot_pairs[i - 1].msgs, cm.hot_pairs[i].msgs);
  }
}

// ---------------------------------------------------------------------------
// (c) Critical path: bit-exact model reconstruction + hand-computed check.
// ---------------------------------------------------------------------------

TEST(CriticalPath, ReproducesFenceModelSecondsBitExactly) {
  const auto r = golden_ds_run();
  const auto run = from_trace_log(*r.trace_log, "golden");
  const auto cp = analyze_run(run).critical_path;

  EXPECT_TRUE(cp.model_matches);
  for (const auto& step : cp.steps) {
    EXPECT_EQ(step.modeled_seconds, step.recorded_seconds)
        << "epoch " << step.epoch;
  }
  // Total modeled time re-derived from the trace equals the runtime's own
  // accumulation bit-for-bit (same addends, same order).
  EXPECT_EQ(cp.total_recorded_seconds, r.model_time.back());
  EXPECT_EQ(cp.total_modeled_seconds, r.model_time.back());
}

TEST(CriticalPath, TermsMatchHandComputedBreakdownOnSyntheticTrace) {
  // Hand-built two-epoch trace with round numbers so every α–β–γ term is
  // computable on paper. Model: c_flop=2, α=10, β=0.5, γ=8, σ=1.
  simmpi::MachineModel m;
  m.flop_time = 2.0;
  m.alpha = 10.0;
  m.beta = 0.5;
  m.gamma = 8.0;
  m.sigma = 1.0;

  RunTrace run;
  run.label = "synthetic";
  run.num_ranks = 2;
  auto ev = [&](trace::EventKind kind, int rank, int peer, int tag,
                std::uint64_t epoch, double a0, double a1) {
    trace::Event e;
    e.kind = kind;
    e.rank = rank;
    e.peer = peer;
    e.tag = tag;
    e.epoch = static_cast<std::uint32_t>(epoch);
    e.a0 = a0;
    e.a1 = a1;
    run.events.push_back(e);
  };
  using trace::EventKind;
  // Epoch 0: rank 0 does 3 flops (cost 6) and sends 2 msgs of 16 bytes
  // (cost 2*10 + 32*0.5 = 36); rank 1 does 5 flops (cost 10). Straggler is
  // rank 0 at 42; latency (20) dominates its terms. Epoch-wide: network
  // gamma*2/2 = 8, sync 1. T = 42 + 8 + 1 = 51.
  ev(EventKind::kCompute, 0, -1, -1, 0, 3.0, 0.0);
  ev(EventKind::kPut, 0, 1, 0, 0, 2.0, 16.0);
  ev(EventKind::kPut, 0, 1, 1, 0, 2.0, 16.0);
  ev(EventKind::kCompute, 1, -1, -1, 0, 5.0, 0.0);
  ev(EventKind::kFence, -1, -1, -1, 0, 51.0, 2.0);
  // Epoch 1: rank 1 does 20 flops (cost 40), no messages. Straggler rank 1,
  // compute dominates. T = 40 + 0 + 1 = 41.
  ev(EventKind::kCompute, 1, -1, -1, 1, 20.0, 0.0);
  ev(EventKind::kFence, -1, -1, -1, 1, 41.0, 0.0);

  const auto cp = analyze_run(run, {.model = m}).critical_path;
  ASSERT_EQ(cp.steps.size(), 2u);
  EXPECT_TRUE(cp.model_matches);

  const auto& s0 = cp.steps[0];
  EXPECT_EQ(s0.straggler, 0);
  EXPECT_EQ(s0.terms[static_cast<int>(CostTerm::kCompute)], 6.0);
  EXPECT_EQ(s0.terms[static_cast<int>(CostTerm::kLatency)], 20.0);
  EXPECT_EQ(s0.terms[static_cast<int>(CostTerm::kBandwidth)], 16.0);
  EXPECT_EQ(s0.terms[static_cast<int>(CostTerm::kNetwork)], 8.0);
  EXPECT_EQ(s0.terms[static_cast<int>(CostTerm::kSync)], 1.0);
  EXPECT_EQ(s0.modeled_seconds, 51.0);
  EXPECT_EQ(s0.dominant, CostTerm::kLatency);

  const auto& s1 = cp.steps[1];
  EXPECT_EQ(s1.straggler, 1);
  EXPECT_EQ(s1.terms[static_cast<int>(CostTerm::kCompute)], 40.0);
  EXPECT_EQ(s1.terms[static_cast<int>(CostTerm::kLatency)], 0.0);
  EXPECT_EQ(s1.modeled_seconds, 41.0);
  EXPECT_EQ(s1.dominant, CostTerm::kCompute);

  EXPECT_EQ(cp.epochs_dominated[static_cast<int>(CostTerm::kLatency)], 1u);
  EXPECT_EQ(cp.epochs_dominated[static_cast<int>(CostTerm::kCompute)], 1u);
  ASSERT_EQ(cp.straggler_epochs.size(), 2u);
  EXPECT_EQ(cp.straggler_epochs[0], 1u);
  EXPECT_EQ(cp.straggler_epochs[1], 1u);
  EXPECT_EQ(cp.total_modeled_seconds, 92.0);
}

TEST(CriticalPath, MismatchedModelIsDetected) {
  // The bit-exact flag is the analyzer's alarm for "you analyzed with the
  // wrong machine model" — make sure it actually trips.
  const auto r = golden_ds_run();
  const auto run = from_trace_log(*r.trace_log, "golden");
  simmpi::MachineModel wrong;
  wrong.alpha *= 2.0;
  EXPECT_FALSE(analyze_run(run, {.model = wrong}).critical_path.model_matches);
}

// Every fault the runtime can inject, async delivery and an elastic kill
// leave each fence's modeled seconds rebuildable from the trace alone, and
// each event tally equal to the counter the runtime bumps beside it.
TEST(CriticalPath, EveryFaultKindReconstructsBitExactly) {
  auto p = make_problem(12, 8, 91);
  DistRunOptions base;
  base.max_parallel_steps = 16;
  base.trace.enabled = true;
  base.resilience.enabled = true;

  struct Case {
    const char* name;
    DistRunOptions opt;
    int action;  ///< FaultReport action the run must record, or -1
  };
  std::vector<Case> cases;
  const auto faulted = [&](const char* name, int action,
                           double faults::EdgeFaults::*probability) {
    Case c{name, base, action};
    c.opt.faults.defaults.*probability = 0.1;
    cases.push_back(c);
  };
  faulted("drop", FaultReport::kDrop, &faults::EdgeFaults::drop_probability);
  faulted("duplicate", FaultReport::kDuplicate,
          &faults::EdgeFaults::duplicate_probability);
  faulted("reorder", FaultReport::kReorder,
          &faults::EdgeFaults::reorder_probability);
  faulted("corrupt", FaultReport::kCorrupt,
          &faults::EdgeFaults::corrupt_probability);
  faulted("truncate", FaultReport::kTruncate,
          &faults::EdgeFaults::truncate_probability);
  Case stall{"stall", base, FaultReport::kStall};
  stall.opt.faults.stalls.push_back({3, 4, 3});
  cases.push_back(stall);
  Case async{"async", base, -1};
  async.opt.async = true;
  cases.push_back(async);

  const auto expect_complete = [](const RunTrace& run,
                                  const std::string& name) {
    SCOPED_TRACE(name);
    const RunAnalysis a = analyze_run(run);
    EXPECT_TRUE(a.critical_path.model_matches);
    EXPECT_EQ(a.critical_path.total_modeled_seconds,
              a.critical_path.total_recorded_seconds);
    const auto counter = [&run](const char* metric) {
      const MetricSeries* m = run.find_metric(metric);
      EXPECT_NE(m, nullptr) << metric;
      return m ? m->total() : -1.0;
    };
    const auto& f = a.faults.by_action;
    EXPECT_EQ(a.comm.total_msgs, counter("simmpi.msgs_sent"));
    EXPECT_EQ(a.comm.total_bytes, counter("simmpi.bytes_sent"));
    EXPECT_EQ(f[FaultReport::kDrop], counter("simmpi.faults_dropped"));
    EXPECT_EQ(f[FaultReport::kDuplicate], counter("simmpi.faults_duplicated"));
    EXPECT_EQ(f[FaultReport::kReorder], counter("simmpi.faults_reordered"));
    EXPECT_EQ(f[FaultReport::kCorrupt] + f[FaultReport::kTruncate],
              counter("simmpi.faults_corrupted"));
    EXPECT_EQ(f[FaultReport::kDeadDrop], counter("simmpi.faults_killed"));
    EXPECT_EQ(a.async.delivered, counter("simmpi.async_delivered"));
    EXPECT_EQ(a.async.staleness_sum, counter("simmpi.async_staleness_sum"));
    return a;
  };

  for (const Case& c : cases) {
    const auto r = dist::run_distributed(DistMethod::kDistributedSouthwell,
                                         p.a, p.part, p.b, p.x0, c.opt);
    ASSERT_TRUE(r.trace_log) << c.name;
    const auto a = expect_complete(from_trace_log(*r.trace_log, c.name),
                                   c.name);
    // The run's modeled-time series ends where the trace does: after the
    // async drain's epochs too.
    EXPECT_EQ(a.critical_path.total_modeled_seconds, r.model_time.back())
        << c.name;
    if (c.action >= 0) {
      EXPECT_GT(a.faults.by_action[static_cast<std::size_t>(c.action)], 0u)
          << c.name;
    } else {
      EXPECT_GT(a.async.delivered, 0u) << c.name;
    }
  }

  DistRunOptions killed = base;
  killed.faults.kills.push_back({3, 6});
  elastic::RecoveryOptions rec;
  rec.checkpoint_every = 4;
  const auto er = elastic::run_elastic(DistMethod::kDistributedSouthwell,
                                       p.a, p.part, p.b, p.x0, killed, rec);
  ASSERT_EQ(er.recoveries.size(), 1u);
  ASSERT_TRUE(er.run.trace_log);
  const auto a =
      expect_complete(from_trace_log(*er.run.trace_log, "elastic"), "elastic");
  EXPECT_EQ(a.critical_path.total_modeled_seconds, er.run.model_time.back());
  EXPECT_EQ(a.elastic.by_action[ElasticReport::kKill], 1u);
}

// ---------------------------------------------------------------------------
// (a) Timeline invariants.
// ---------------------------------------------------------------------------

TEST(Timeline, PerRankAccountingMatchesRunTotals) {
  const auto r = golden_ds_run();
  const auto run = from_trace_log(*r.trace_log, "golden");
  const auto tl = analyze_run(run).timeline;

  ASSERT_EQ(tl.num_ranks, 4);
  std::uint64_t msgs = 0, rows = 0;
  for (const auto& rk : tl.ranks) {
    msgs += rk.msgs_sent;
    rows += rk.rows_relaxed;
    EXPECT_GE(rk.compute_seconds, 0.0);
    EXPECT_GE(rk.send_seconds, 0.0);
    EXPECT_GE(rk.wait_seconds, 0.0);
  }
  EXPECT_EQ(msgs, r.comm_totals.msgs);
  EXPECT_EQ(static_cast<double>(rows), r.relaxations.back());
  EXPECT_EQ(tl.total_model_seconds, r.model_time.back());
  EXPECT_GE(tl.max_imbalance, 1.0);
  // Every epoch's per-rank busy time is bounded by the epoch duration.
  for (const auto& step : tl.steps) {
    EXPECT_LE(step.max_cost, step.epoch_seconds);
    EXPECT_LE(step.mean_cost, step.max_cost);
  }
}

// ---------------------------------------------------------------------------
// (d) Convergence diagnostics.
// ---------------------------------------------------------------------------

TEST(Convergence, PointsTrackEpochsAndDsCountersSurface) {
  const auto r = golden_ds_run();
  const auto run = from_trace_log(*r.trace_log, "golden");
  const auto cv = analyze_run(run).convergence;

  ASSERT_FALSE(cv.points.empty());
  for (std::size_t i = 1; i < cv.points.size(); ++i) {
    EXPECT_GT(cv.points[i].epoch, cv.points[i - 1].epoch);
    EXPECT_GE(cv.points[i].t_model, cv.points[i - 1].t_model);
  }
  EXPECT_EQ(cv.points.back().ranks_reporting, 4);
  EXPECT_GT(cv.points.back().residual_estimate, 0.0);
  // Distributed Southwell registers its deferral counters.
  EXPECT_TRUE(cv.ds_corrections_sent.has_value());
  EXPECT_TRUE(cv.ds_deferred_sends.has_value());
  std::uint64_t stall_total = 0;
  for (const auto& s : cv.stalls) stall_total += s.epochs();
  EXPECT_EQ(stall_total, cv.stalled_epochs);
}

// ---------------------------------------------------------------------------
// Backend determinism: the whole analyzer output, byte for byte.
// ---------------------------------------------------------------------------

TEST(AnalyzerDeterminism, EveryRenderedFormatIsByteIdenticalAcrossBackends) {
  const auto seq = golden_ds_run(simmpi::BackendKind::kSequential);
  const auto thr = golden_ds_run(simmpi::BackendKind::kThreadPool);
  ASSERT_TRUE(seq.trace_log && thr.trace_log);

  const AnalyzeOptions opt;
  auto render_all = [&](const DistRunResult& r) {
    const auto run = from_trace_log(*r.trace_log, "golden");
    const auto a = analyze_run(run, opt);
    std::ostringstream ascii;
    render_ascii(ascii, a, opt);
    return ascii.str() + "\x1f" + to_json(a, opt);
  };
  EXPECT_EQ(render_all(seq), render_all(thr));
}

// ---------------------------------------------------------------------------
// The JSON document: every report value, one shape for every run.
// ---------------------------------------------------------------------------

TEST(AnalysisJson, CarriesEveryReportValueWithAFixedShape) {
  auto p = make_problem(12, 8, 31);
  DistRunOptions bj;
  bj.max_parallel_steps = 10;
  bj.trace.enabled = true;
  DistRunOptions node = bj;
  node.ranks_per_node = 2;
  node.node_route = true;
  const struct {
    const char* name;
    DistMethod method;
    const DistRunOptions& opt;
  } runs[] = {{"bj", DistMethod::kBlockJacobi, bj},
              {"ds-node", DistMethod::kDistributedSouthwell, node}};

  AnalyzeOptions opt;
  opt.top_pairs = 1;  // shortens the ASCII lists only
  for (const auto& r : runs) {
    SCOPED_TRACE(r.name);
    const auto res =
        dist::run_distributed(r.method, p.a, p.part, p.b, p.x0, r.opt);
    ASSERT_TRUE(res.trace_log);
    const RunAnalysis a = analyze_run(from_trace_log(*res.trace_log, r.name),
                                      opt);
    const util::JsonValue doc = util::parse_json(to_json(a, opt));
    EXPECT_EQ(doc.at("schema_version").as_int(), 4);

    const auto& steps = doc.at("timeline").at("steps").as_array();
    ASSERT_EQ(steps.size(), a.timeline.steps.size());
    ASSERT_FALSE(steps.empty());
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const auto& want = a.timeline.steps[i];
      EXPECT_EQ(steps[i].at("epoch").as_int(),
                static_cast<std::int64_t>(want.epoch));
      EXPECT_EQ(steps[i].at("epoch_seconds").as_number(), want.epoch_seconds);
      EXPECT_EQ(steps[i].at("max_cost").as_number(), want.max_cost);
      EXPECT_EQ(steps[i].at("mean_cost").as_number(), want.mean_cost);
      EXPECT_EQ(steps[i].at("imbalance").as_number(), want.imbalance());
      EXPECT_EQ(steps[i].at("straggler").as_int(), want.straggler);
    }

    // Every pair, hottest first, with its per-tag split.
    const auto& pairs = doc.at("comm_matrix").at("pairs").as_array();
    ASSERT_EQ(pairs.size(), a.comm.hot_pairs.size());
    ASSERT_GT(pairs.size(), 1u);
    const char* tag_keys[] = {"msgs_solve", "msgs_residual", "msgs_other"};
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto& want = a.comm.hot_pairs[i];
      EXPECT_EQ(pairs[i].at("src").as_int(), want.src);
      EXPECT_EQ(pairs[i].at("dst").as_int(), want.dst);
      for (int t = 0; t < simmpi::kNumTags; ++t) {
        EXPECT_EQ(pairs[i].at(tag_keys[t]).as_int(),
                  static_cast<std::int64_t>(
                      want.msgs_by_tag[static_cast<std::size_t>(t)]));
      }
    }

    const auto& leaders = doc.at("node").at("leader_pairs").as_array();
    ASSERT_EQ(leaders.size(), a.node.leader_pairs.size());
    if (r.opt.ranks_per_node > 0) {
      ASSERT_GT(leaders.size(), 1u);
    }
    for (std::size_t i = 0; i < leaders.size(); ++i) {
      EXPECT_EQ(leaders[i].at("src").as_int(), a.node.leader_pairs[i].src);
      EXPECT_EQ(leaders[i].at("dst").as_int(), a.node.leader_pairs[i].dst);
    }

    // The DS keys are on every run: numbers when the trace carries the
    // ds.* counters, null when it does not.
    const auto& cv = doc.at("convergence");
    const auto expect_key = [&](const char* key, bool has) {
      const util::JsonValue* v = cv.find(key);
      ASSERT_NE(v, nullptr) << key;
      EXPECT_EQ(v->is_null(), !has) << key;
    };
    expect_key("ds_corrections_sent",
               a.convergence.ds_corrections_sent.has_value());
    expect_key("ds_deferred_sends",
               a.convergence.ds_deferred_sends.has_value());
    expect_key("max_deferral_rank",
               a.convergence.max_deferral_rank.has_value());
    EXPECT_EQ(a.convergence.ds_corrections_sent.has_value(),
              r.method == DistMethod::kDistributedSouthwell);
  }
}

// ---------------------------------------------------------------------------
// JSONL round trip: parse(write_jsonl(log)) == from_trace_log(log).
// ---------------------------------------------------------------------------

TEST(RunTrace, JsonlRoundTripPreservesEveryDeterministicField) {
  const auto r = golden_ds_run();
  const auto direct = from_trace_log(*r.trace_log, "golden");

  std::ostringstream os;
  trace::TraceExportOptions eopt;
  eopt.run_label = "golden";
  trace::write_jsonl(os, *r.trace_log, eopt);
  const auto parsed_runs = parse_jsonl(os.str());
  ASSERT_EQ(parsed_runs.size(), 1u);
  const auto& parsed = parsed_runs[0];

  EXPECT_EQ(parsed.label, "golden");
  EXPECT_EQ(parsed.num_ranks, direct.num_ranks);
  ASSERT_EQ(parsed.events.size(), direct.events.size());
  for (std::size_t i = 0; i < parsed.events.size(); ++i) {
    const auto& a = parsed.events[i];
    const auto& b = direct.events[i];
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.rank, b.rank) << i;
    EXPECT_EQ(a.peer, b.peer) << i;
    EXPECT_EQ(a.tag, b.tag) << i;
    EXPECT_EQ(a.epoch, b.epoch) << i;
    EXPECT_EQ(a.a0, b.a0) << i;
    EXPECT_EQ(a.a1, b.a1) << i;
    EXPECT_EQ(a.t_model, b.t_model) << i;
  }
  ASSERT_EQ(parsed.metrics.size(), direct.metrics.size());
  for (std::size_t i = 0; i < parsed.metrics.size(); ++i) {
    EXPECT_EQ(parsed.metrics[i].name, direct.metrics[i].name);
    EXPECT_EQ(parsed.metrics[i].kind, direct.metrics[i].kind);
    EXPECT_EQ(parsed.metrics[i].per_rank, direct.metrics[i].per_rank);
  }
  // And the analyses built from both paths agree byte-for-byte.
  EXPECT_EQ(to_json(analyze_run(parsed)), to_json(analyze_run(direct)));
}

TEST(RunTrace, ParserRejectsGarbageAndUnknownVersions) {
  EXPECT_THROW(parse_jsonl("not json\n"), util::CheckError);
  // Only trace::kTraceVersion parses; older and newer versions alike are
  // refused, with both numbers in the message.
  const auto header = [](int version) {
    return R"({"type":"header","version":)" + std::to_string(version) +
           R"(,"num_ranks":2,"events":0})" + "\n";
  };
  const std::string metric =
      R"({"type":"metric","name":"simmpi.msgs","metric_kind":"counter",)"
      R"("per_rank":[0,0]})" "\n";
  EXPECT_EQ(trace::kTraceVersion, 9);
  EXPECT_EQ(parse_jsonl(header(9) + metric).size(), 1u);
  // A header alone never reaches an analyzer: nothing confirms num_ranks,
  // and a crafted count would size P-long tables to bad_alloc.
  EXPECT_THROW(parse_jsonl(header(trace::kTraceVersion)), util::CheckError);
  try {
    parse_jsonl(R"({"type":"header","version":)" +
                std::to_string(trace::kTraceVersion) +
                R"(,"num_ranks":2000000000})");
    ADD_FAILURE() << "a header-only run with 2e9 ranks parsed";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("no metric line"),
              std::string::npos)
        << e.what();
  }
  for (int version : {2, 6, 7, 8, 99}) {
    try {
      parse_jsonl(header(version));
      ADD_FAILURE() << "version " << version << " parsed";
    } catch (const util::CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("version " + std::to_string(version)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("version " + std::to_string(trace::kTraceVersion)),
                std::string::npos)
          << what;
    }
  }
  // Events before any header have no run to belong to.
  EXPECT_THROW(
      parse_jsonl(R"({"type":"event","kind":"fence","seq":0,"epoch":0,)"
                  R"("rank":-1,"t_model":0,"a0":0,"a1":0})"
                  "\n"),
      util::CheckError);
  EXPECT_TRUE(parse_jsonl("\n\n").empty());
}

TEST(RunTrace, ParserRejectsFieldsAnalyzersCannotUse) {
  // Each crafted event follows a valid header and one fence, and must be
  // refused with a CheckError naming its line — never reach an analyzer
  // (a 1e15 staleness would size the staleness histogram to 8 PB, and
  // casting -1 to an unsigned count is undefined behaviour).
  const std::string prefix =
      R"({"type":"header","version":)" + std::to_string(trace::kTraceVersion) +
      R"(,"num_ranks":2,"events":2})" "\n"
      R"({"type":"event","kind":"fence","seq":0,"epoch":0,"rank":-1,)"
      R"("t_model":1,"a0":1,"a1":0})" "\n";
  const auto deliver = [](const std::string& epoch, const std::string& a0) {
    return R"({"type":"event","kind":"deliver","seq":1,"epoch":)" + epoch +
           R"(,"rank":0,"peer":1,"tag":0,"t_model":1,"a0":)" + a0 +
           R"(,"a1":4})" "\n";
  };
  const std::string metric =
      R"({"type":"metric","name":"simmpi.msgs","metric_kind":"counter",)"
      R"("per_rank":[1,0]})" "\n";
  // The well-formed variant parses, so each rejection below is the field.
  ASSERT_EQ(parse_jsonl(prefix + deliver("1", "1") + metric).size(), 1u);
  const std::vector<std::string> bad = {
      deliver("1", "1e15"),  // staleness beyond the run
      deliver("1", "-1"),    // negative count
      deliver("1", "0.5"),   // fractional count
      deliver("1", "1e999"), // non-finite
      deliver("0", "1"),     // staleness beyond its own epoch
      deliver("1e30", "1"),  // epoch outside uint64
      deliver("-1", "0"),    // negative epoch
      R"({"type":"event","kind":"relax","seq":1,"epoch":1,"rank":2,)"
      R"("t_model":1,"a0":3,"a1":0.5})" "\n",  // rank outside the run
      R"({"type":"event","kind":"put","seq":1,"epoch":1,"rank":0,"peer":-3,)"
      R"("tag":0,"t_model":1,"a0":2,"a1":16})" "\n",  // bad peer
      R"({"type":"event","kind":"put","seq":1,"epoch":1,"rank":0,"peer":1,)"
      R"("tag":0,"t_model":1,"a0":2,"a1":16.5})" "\n",  // fractional bytes
      R"({"type":"event","kind":"hop","seq":1,"epoch":1,"rank":0,"peer":1,)"
      R"("tag":0,"t_model":1e999,"a0":16,"a1":1})" "\n",  // non-finite time
      R"({"type":"event","kind":"elastic","seq":1,"epoch":1,"rank":0,)"
      R"("tag":1,"t_model":1,"a0":3e9,"a1":1})" "\n",  // dead rank > int
      R"({"type":"event","kind":"relax","seq":2,"epoch":1,"rank":0,)"
      R"("t_model":1,"a0":3,"a1":0.5})" "\n",  // seq is not its index (1)
      deliver("4294967296", "1"),  // epoch beyond 32 bits
      R"({"type":"event","kind":"put","seq":1,"epoch":1,"rank":0,"peer":1,)"
      R"("tag":128,"t_model":1,"a0":2,"a1":16})" "\n",  // tag beyond 8 bits
  };
  for (const std::string& line : bad) {
    try {
      parse_jsonl(prefix + line + metric);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const util::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
}

TEST(RunTrace, FromTraceLogSharesTheEventStorage) {
  const auto r = golden_ds_run();
  const auto run = from_trace_log(*r.trace_log, "golden");
  ASSERT_FALSE(run.events.empty());
  ASSERT_EQ(run.events.size(), r.trace_log->events.size());
  EXPECT_EQ(&run.events[0], &r.trace_log->events[0]);
  EXPECT_EQ(&run.events.back(), &r.trace_log->events.back());
}

TEST(RunTrace, FileReaderMatchesTextParserLineForLine) {
  const auto r = golden_ds_run();
  std::ostringstream os;
  trace::TraceExportOptions eopt;
  eopt.run_label = "golden";
  trace::write_jsonl(os, *r.trace_log, eopt);
  const std::string text = os.str();
  const std::string path = ::testing::TempDir() + "reader_matches_parser.jsonl";
  const auto write = [&](const std::string& body) {
    std::ofstream out(path, std::ios::binary);
    out << body;
  };

  write(text);
  const auto from_file = read_jsonl_file(path);
  const auto from_text = parse_jsonl(text);
  ASSERT_EQ(from_file.size(), 1u);
  ASSERT_EQ(from_text.size(), 1u);
  EXPECT_EQ(from_file[0].events.size(), from_text[0].events.size());
  EXPECT_EQ(to_json(analyze_run(from_file[0])),
            to_json(analyze_run(from_text[0])));

  // A bad line deep in the file is reported with the same line number.
  std::string bad = text;
  const std::size_t line3 = bad.find('\n', bad.find('\n') + 1) + 1;
  bad.insert(line3, "{\"type\":\"event\"}\n");
  write(bad);
  std::string file_error, text_error;
  try {
    read_jsonl_file(path);
  } catch (const util::CheckError& e) {
    file_error = e.what();
  }
  try {
    parse_jsonl(bad);
  } catch (const util::CheckError& e) {
    text_error = e.what();
  }
  EXPECT_NE(file_error.find("JSONL trace line 3:"), std::string::npos)
      << file_error;
  EXPECT_NE(text_error.find("JSONL trace line 3:"), std::string::npos)
      << text_error;
  std::remove(path.c_str());
}

TEST(RunTrace, FindMetricLooksUpByName) {
  const auto r = golden_ds_run();
  const auto run = from_trace_log(*r.trace_log, "golden");
  const auto* m = run.find_metric("simmpi.msgs_sent");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(m->total()), r.comm_totals.msgs);
  EXPECT_EQ(run.find_metric("no.such.metric"), nullptr);
}

}  // namespace
}  // namespace dsouth::analysis
