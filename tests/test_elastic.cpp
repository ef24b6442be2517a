/// Tests for the elastic-ranks subsystem (src/elastic, docs/resilience.md
/// "Permanent failure and recovery"): permanent-kill schedule semantics,
/// dead-rank silencing at the runtime fence, the versioned checkpoint
/// codec (round-trip determinism, corruption rejection, and a format that
/// holds only the iterate and the runtime cursors), fault-free
/// byte-identity of run_elastic against run_distributed (series AND trace
/// bytes), full kill-and-repartition recovery for all four solvers, and
/// the Runtime::reset_stats / CommStats save-load audit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <sstream>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/run_trace.hpp"
#include "dist/driver.hpp"
#include "dist/harness.hpp"
#include "elastic/checkpoint.hpp"
#include "elastic/elastic.hpp"
#include "faults/fault_plan.hpp"
#include "graph/partition.hpp"
#include "simmpi/runtime.hpp"
#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "trace/export.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wire/wire.hpp"

namespace dsouth {
namespace {

using sparse::CsrMatrix;
using sparse::index_t;
using sparse::value_t;

struct Problem {
  CsrMatrix a;
  std::vector<value_t> b, x0;
  graph::Partition part;
};

Problem make_problem(index_t nx, index_t k, std::uint64_t seed) {
  Problem p;
  p.a = sparse::symmetric_unit_diagonal_scale(sparse::poisson2d_5pt(nx, nx)).a;
  p.b.assign(static_cast<std::size_t>(p.a.rows()), 0.0);
  p.x0.resize(p.b.size());
  util::Rng rng(seed);
  rng.fill_uniform(p.x0, -1.0, 1.0);
  sparse::normalize_initial_residual(p.a, p.b, p.x0);
  auto g = graph::Graph::from_matrix_structure(p.a);
  p.part = graph::partition_recursive_bisection(g, k);
  return p;
}

// ---------------------------------------------------------------------------
// Kill-schedule semantics (faults::RankKill / RandomKills).

TEST(KillSchedule, ExplicitKillsAndEarliestWins) {
  faults::FaultPlan plan;
  EXPECT_FALSE(plan.any());
  plan.kills.push_back({2, 7});
  EXPECT_TRUE(plan.any());  // kills alone make the plan nonzero
  plan.kills.push_back({2, 4});  // earliest entry wins
  plan.kills.push_back({0, 9});
  faults::FaultSchedule sched(plan, 4);
  EXPECT_TRUE(sched.any_kills());
  EXPECT_EQ(sched.kill_epoch(2), 4u);
  EXPECT_EQ(sched.kill_epoch(0), 9u);
  EXPECT_EQ(sched.kill_epoch(1), faults::FaultSchedule::kNeverKilled);
  EXPECT_EQ(sched.kill_epoch(3), faults::FaultSchedule::kNeverKilled);
  // dead() is monotone in the epoch counter.
  EXPECT_FALSE(sched.dead(2, 3));
  EXPECT_TRUE(sched.dead(2, 4));
  EXPECT_TRUE(sched.dead(2, 1000));
  EXPECT_FALSE(sched.dead(1, 1000));
}

TEST(KillSchedule, RandomKillDrawsAreSeededAndDeterministic) {
  faults::FaultPlan plan;
  // Draws are per-(rank, epoch): survival chance is (1-p)^max, so keep p
  // small enough that both fates occur across 32 ranks.
  plan.random_kills.probability = 0.05;
  plan.random_kills.max_kill_epoch = 16;
  EXPECT_TRUE(plan.any());
  faults::FaultSchedule s1(plan, 32);
  faults::FaultSchedule s2(plan, 32);
  bool someone_died = false, someone_survived = false;
  for (int r = 0; r < 32; ++r) {
    EXPECT_EQ(s1.kill_epoch(r), s2.kill_epoch(r));  // same seed, same fate
    if (s1.kill_epoch(r) != faults::FaultSchedule::kNeverKilled) {
      someone_died = true;
      EXPECT_LT(s1.kill_epoch(r), 16u);  // draws cover [0, max) only
    } else {
      someone_survived = true;
    }
  }
  EXPECT_TRUE(someone_died);
  EXPECT_TRUE(someone_survived);
  plan.seed ^= 1;
  faults::FaultSchedule s3(plan, 32);
  bool seed_changed_something = false;
  for (int r = 0; r < 32; ++r) {
    if (s1.kill_epoch(r) != s3.kill_epoch(r)) seed_changed_something = true;
  }
  EXPECT_TRUE(seed_changed_something);

  // Certain death: probability 1 kills everyone at the first covered epoch.
  plan.random_kills.probability = 1.0;
  faults::FaultSchedule s4(plan, 8);
  for (int r = 0; r < 8; ++r) EXPECT_EQ(s4.kill_epoch(r), 0u);
}

TEST(KillSchedule, DeadRankTrafficIsSwallowed) {
  auto p = make_problem(12, 4, 11);
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 12;
  opt.faults.kills.push_back({1, 3});
  auto r = dist::run_distributed(dist::DistMethod::kBlockJacobi, p.a, p.part,
                                 p.b, p.x0, opt);
  ASSERT_TRUE(r.fault_summary.has_value());
  // The dead rank's in-flight and incoming traffic is dropped at the fence.
  EXPECT_GT(r.fault_summary->msgs_dead_dropped, 0u);
  // Without recovery the lost subdomain stalls convergence vs a clean run.
  dist::DistRunOptions clean_opt;
  clean_opt.max_parallel_steps = 12;
  auto clean = dist::run_distributed(dist::DistMethod::kBlockJacobi, p.a,
                                     p.part, p.b, p.x0, clean_opt);
  EXPECT_GT(r.residual_norm.back(), clean.residual_norm.back());
}

// ---------------------------------------------------------------------------
// Checkpoint codec.

elastic::Checkpoint capture_checkpoint(dist::RunHarness& h, int method,
                                       index_t step) {
  elastic::Checkpoint c;
  c.num_ranks = h.runtime().num_ranks();
  c.method = method;
  c.epoch = h.runtime().epochs_completed();
  c.step = step;
  c.runtime = h.runtime().capture_state();
  c.solver = h.solver().capture_state();
  return c;
}

/// A DS checkpoint of a 10x10 Poisson problem on 4 ranks after 3 steps
/// (1208 bytes).
elastic::Checkpoint small_ds_checkpoint() {
  auto p = make_problem(10, 4, 21);
  dist::DistRunOptions opt;
  dist::DistLayout layout(p.a, p.part);
  dist::RunHarness h(dist::DistMethod::kDistributedSouthwell, layout, p.b,
                     p.x0, opt);
  for (int k = 0; k < 3; ++k) h.solver().step();
  return capture_checkpoint(h, 3, 3);
}

TEST(CheckpointCodec, EncodeDecodeRoundTripIsByteStable) {
  const auto c = small_ds_checkpoint();
  const auto bytes = elastic::encode(c);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes.size() % 8, 0u);

  const auto d = elastic::decode(bytes);
  EXPECT_EQ(d.num_ranks, c.num_ranks);
  EXPECT_EQ(d.method, c.method);
  EXPECT_EQ(d.epoch, c.epoch);
  EXPECT_EQ(d.step, c.step);
  EXPECT_EQ(d.runtime.epochs, c.runtime.epochs);
  EXPECT_EQ(d.solver.x, c.solver.x);  // bitwise: doubles travel as u64
  // Re-encoding the decoded checkpoint reproduces the buffer byte for byte.
  EXPECT_EQ(elastic::encode(d), bytes);
}

TEST(CheckpointCodec, RejectsCorruptionTruncationAndBadHeaders) {
  auto p = make_problem(8, 2, 22);
  dist::DistRunOptions opt;
  dist::DistLayout layout(p.a, p.part);
  dist::RunHarness h(dist::DistMethod::kBlockJacobi, layout, p.b, p.x0, opt);
  h.solver().step();
  const auto bytes = elastic::encode(capture_checkpoint(h, 0, 1));

  // Payload bit flip -> checksum mismatch.
  auto corrupt = bytes;
  corrupt[corrupt.size() - 1] ^= 0x40;
  EXPECT_THROW(elastic::decode(corrupt), util::CheckError);

  // Bad magic.
  auto magic = bytes;
  magic[0] ^= 0xff;
  EXPECT_THROW(elastic::decode(magic), util::CheckError);

  // Unsupported version.
  auto version = bytes;
  version[8] ^= 0xff;
  EXPECT_THROW(elastic::decode(version), util::CheckError);

  // A version-2 buffer (which still carried a reserved runtime word) is
  // refused rather than misread. The version is the little-endian word at
  // byte 8.
  ASSERT_EQ(bytes[8], elastic::kCheckpointVersion);
  auto v2 = bytes;
  v2[8] = 2;
  EXPECT_THROW(elastic::decode(v2), util::CheckError);
  // Nor is a version-3 buffer, whose checksum left the header fields out.
  auto v3 = bytes;
  v3[8] = 3;
  EXPECT_THROW(elastic::decode(v3), util::CheckError);
  // Nor a version-4 buffer, which also carried the residuals, the solver
  // caches and the messages in flight.
  auto v4 = bytes;
  v4[8] = 4;
  EXPECT_THROW(elastic::decode(v4), util::CheckError);

  // Truncation: drop the tail (word-aligned and not).
  auto truncated = bytes;
  truncated.resize(truncated.size() - 8);
  EXPECT_THROW(elastic::decode(truncated), util::CheckError);
  auto ragged = bytes;
  ragged.resize(ragged.size() - 3);
  EXPECT_THROW(elastic::decode(ragged), util::CheckError);

  // Trailing garbage past the declared payload length.
  auto trailing = bytes;
  trailing.insert(trailing.end(), 8, std::uint8_t{0});
  EXPECT_THROW(elastic::decode(trailing), util::CheckError);
}

TEST(CheckpointCodec, EveryBitFlipIsRejected) {
  // The checksum covers every word after its own slot, header fields
  // included, and the words before it are checked exactly, so no
  // single-bit flip anywhere in the buffer decodes.
  const auto bytes = elastic::encode(small_ds_checkpoint());
  ASSERT_NO_THROW(elastic::decode(bytes));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bad = bytes;
      bad[i] ^= static_cast<std::uint8_t>(1U << bit);
      EXPECT_THROW(elastic::decode(bad), util::CheckError)
          << "word " << i / 8 << " bit " << 8 * (i % 8) + bit;
    }
  }
}

/// Header words of a v5 checkpoint: magic, version, payload words,
/// checksum, num_ranks, method, epoch, step.
constexpr std::size_t kCheckpointHeaderWords = 8;

/// Stamp a mutant's payload word count (header word 2) and checksum (word
/// 3, over words 4 on), so that the parser, not the checksum, has to judge
/// it. Buffers too short or ragged for a header stay as they are.
void reseal(std::vector<std::uint8_t>& m) {
  constexpr std::size_t kHeaderBytes = 8 * kCheckpointHeaderWords;
  if (m.size() % 8 != 0 || m.size() < kHeaderBytes) return;
  const std::uint64_t payload_words = (m.size() - kHeaderBytes) / 8;
  std::memcpy(m.data() + 16, &payload_words, 8);
  const std::uint64_t sum =
      wire::checksum64({}, std::as_bytes(std::span(m)).subspan(32));
  std::memcpy(m.data() + 24, &sum, 8);
}

TEST(CheckpointCodec, RejectsHeaderEpochThatDisagreesWithRuntime) {
  // The header's epoch word (word 6) repeats the payload's runtime epochs;
  // resealed, a buffer where the two differ passes the checksum and must
  // still be refused. encode() refuses to write one in the first place.
  auto c = small_ds_checkpoint();
  auto bytes = elastic::encode(c);
  std::uint64_t epoch = 0;
  std::memcpy(&epoch, bytes.data() + 8 * 6, 8);
  ASSERT_EQ(epoch, c.runtime.epochs);
  ++epoch;
  std::memcpy(bytes.data() + 8 * 6, &epoch, 8);
  reseal(bytes);
  EXPECT_THROW(elastic::decode(bytes), util::CheckError);
  c.epoch += 1;
  EXPECT_THROW(elastic::encode(c), util::CheckError);
}

/// A DS checkpoint of a 6x6 Poisson problem on 3 ranks after 4 steps of
/// an event-driven, resilient run: messages are in flight and the
/// resilient caches are live when it is captured, and none of it belongs
/// in the buffer.
elastic::Checkpoint async_resilient_ds_checkpoint() {
  auto p = make_problem(6, 3, 23);
  dist::DistRunOptions opt;
  opt.async = true;
  opt.resilience.enabled = true;
  dist::DistLayout layout(p.a, p.part);
  dist::RunHarness h(dist::DistMethod::kDistributedSouthwell, layout, p.b,
                     p.x0, opt);
  for (int k = 0; k < 4; ++k) h.solver().step();
  return capture_checkpoint(h, 2, 4);
}

TEST(CheckpointCodec, HoldsOnlyTheIterateAndRuntimeCursors) {
  const auto c = async_resilient_ds_checkpoint();
  const auto ranks = static_cast<std::size_t>(c.num_ranks);
  ASSERT_EQ(c.solver.x.size(), ranks);
  // The header; the cursors (epochs, model time, last-epoch seconds and
  // arrival counter, then lane_seq and the CommStats words, each
  // length-prefixed); the iterate's rank count and its length-prefixed
  // per-rank blocks. Nothing else.
  std::size_t words = kCheckpointHeaderWords + 4 + (1 + ranks) +
                      (1 + simmpi::CommStats::saved_words(c.num_ranks, 0)) +
                      1;
  for (const auto& x_p : c.solver.x) words += 1 + x_p.size();
  const auto bytes = elastic::encode(c);
  EXPECT_EQ(bytes.size(), 8 * words);

  const auto d = elastic::decode(bytes);
  ASSERT_EQ(d.solver.x.size(), ranks);
  for (std::size_t p = 0; p < ranks; ++p) {
    ASSERT_EQ(d.solver.x[p].size(), c.solver.x[p].size());
    EXPECT_EQ(std::memcmp(d.solver.x[p].data(), c.solver.x[p].data(),
                          8 * c.solver.x[p].size()),
              0)
        << "rank " << p;
  }
}

TEST(CheckpointCodec, SeededMutationsNeverMisparse) {
  // Every mutant either raises CheckError or decodes to a checkpoint that
  // encodes back to exactly the mutant: nothing crashes, nothing is
  // allocated from a corrupt count, nothing is silently narrowed.
  const auto c = async_resilient_ds_checkpoint();
  const std::vector<std::uint8_t> clean = elastic::encode(c);

  util::Rng rng(0x5eed'c4e7ULL);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  int rejected = 0, decoded = 0;
  for (int t = 0; t < 2000; ++t) {
    std::vector<std::uint8_t> m = clean;
    const bool resealed = t % 2 == 1;
    switch (t / 2 % 3) {
      case 0:  // one to four bit flips
        for (std::size_t f = 0, flips = 1 + below(4); f < flips; ++f) {
          m[below(m.size())] ^= static_cast<std::uint8_t>(1U << below(8));
        }
        break;
      case 1:  // truncation, at a word boundary when resealed
        m.resize(resealed ? 8 * below(m.size() / 8) : below(m.size()));
        break;
      case 2: {  // splice: a run of the buffer copied over another place
        const std::size_t from = below(m.size());
        const std::size_t to = below(m.size());
        const std::size_t len =
            std::min({1 + below(64), m.size() - from, m.size() - to});
        std::copy_n(clean.begin() + static_cast<std::ptrdiff_t>(from), len,
                    m.begin() + static_cast<std::ptrdiff_t>(to));
        break;
      }
    }
    if (resealed) reseal(m);
    try {
      const elastic::Checkpoint d = elastic::decode(m);
      ASSERT_EQ(elastic::encode(d), m) << "mutant " << t;
      ++decoded;
    } catch (const util::CheckError&) {
      ++rejected;
    }
  }
  // Both outcomes occur, so the invariant was exercised both ways.
  EXPECT_GT(rejected, 500);
  EXPECT_GT(decoded, 100);
}

// The runtime half of a restore takes the cursors only, so it must land in
// a runtime with nothing staged, delivered-but-unread or held back.
TEST(CheckpointCodec, RuntimeRestoreNeedsARuntimeWithNoTraffic) {
  const std::vector<double> payload = {1.0, 2.0};
  simmpi::Runtime source(2);
  source.put(0, 1, simmpi::MsgTag::kSolve, payload);
  source.fence();
  source.consume(1);
  const simmpi::RuntimeState cursors = source.capture_state();

  simmpi::Runtime target(2);
  simmpi::AsyncDelivery delivery;
  delivery.min_latency_epochs = 2;
  delivery.max_latency_epochs = 2;
  target.set_async_delivery(delivery);
  target.put(1, 0, simmpi::MsgTag::kSolve, payload);
  EXPECT_THROW(target.restore_state(cursors), util::CheckError);  // staged
  target.fence();
  ASSERT_EQ(target.delayed_in_flight(), 1u);
  EXPECT_THROW(target.restore_state(cursors), util::CheckError);  // held
  target.drain_delayed();
  ASSERT_EQ(target.window(0).size(), 1u);
  EXPECT_THROW(target.restore_state(cursors), util::CheckError);  // unread
  target.consume(0);
  target.restore_state(cursors);
  EXPECT_EQ(target.epochs_completed(), source.epochs_completed());
  EXPECT_EQ(target.model_time_seconds(), source.model_time_seconds());
  std::vector<std::uint64_t> want, got;
  source.stats().save(want);
  target.stats().save(got);
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// Fault-free byte-identity: run_elastic with recovery attached but no
// kills is run_distributed — series for series, trace byte for byte.

std::string jsonl_bytes(const std::shared_ptr<const trace::TraceLog>& log,
                        const std::string& label) {
  std::ostringstream os;
  trace::TraceExportOptions topt;
  topt.run_label = label;
  trace::write_jsonl(os, *log, topt);
  return os.str();
}

TEST(ElasticDriver, FaultFreeRunIsByteIdenticalToRunDistributed) {
  auto p = make_problem(12, 4, 41);
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 12;
  opt.trace.enabled = true;
  auto plain = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                     p.a, p.part, p.b, p.x0, opt);
  elastic::RecoveryOptions rec;
  rec.checkpoint_every = 3;
  auto er = elastic::run_elastic(dist::DistMethod::kDistributedSouthwell,
                                 p.a, p.part, p.b, p.x0, opt, rec);
  // Checkpoints were taken — the observer ran — yet nothing changed.
  EXPECT_GT(er.checkpoints_taken, 1);
  EXPECT_GT(er.last_checkpoint_bytes, 0u);
  EXPECT_TRUE(er.recoveries.empty());
  EXPECT_EQ(er.run.final_x, plain.final_x);
  EXPECT_EQ(er.run.residual_norm, plain.residual_norm);
  EXPECT_EQ(er.run.model_time, plain.model_time);
  EXPECT_EQ(er.run.comm_cost, plain.comm_cost);
  EXPECT_EQ(er.run.comm_totals.msgs, plain.comm_totals.msgs);
  EXPECT_EQ(er.run.comm_totals.bytes, plain.comm_totals.bytes);
  ASSERT_NE(er.run.trace_log, nullptr);
  ASSERT_NE(plain.trace_log, nullptr);
  // No kills configured -> no kElastic events -> identical trace bytes.
  EXPECT_EQ(jsonl_bytes(er.run.trace_log, "t"),
            jsonl_bytes(plain.trace_log, "t"));

  // Both drivers apply the same observer-side stop rules (dist::StopRules),
  // so a run that one rule stops early stops at the same step, with the
  // same series and the same watchdog report.
  auto expect_same_stop = [&](const dist::DistRunOptions& sopt) {
    auto d = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                   p.a, p.part, p.b, p.x0, sopt);
    auto e = elastic::run_elastic(dist::DistMethod::kDistributedSouthwell,
                                  p.a, p.part, p.b, p.x0, sopt, rec);
    // The rule under test, not the step budget, ended the run.
    EXPECT_LT(d.steps_taken(),
              static_cast<std::size_t>(sopt.max_parallel_steps));
    EXPECT_EQ(e.run.residual_norm, d.residual_norm);
    EXPECT_EQ(e.run.model_time, d.model_time);
    EXPECT_EQ(e.run.comm_cost, d.comm_cost);
    EXPECT_EQ(e.run.active_ranks, d.active_ranks);
    EXPECT_EQ(e.run.final_x, d.final_x);
    EXPECT_EQ(e.run.watchdog.fired, d.watchdog.fired);
    EXPECT_EQ(e.run.watchdog.reason, d.watchdog.reason);
    EXPECT_EQ(e.run.watchdog.step, d.watchdog.step);
    return d;
  };
  {
    SCOPED_TRACE("stop_at_residual");
    dist::DistRunOptions sopt = opt;
    sopt.stop_at_residual = plain.residual_norm[7];
    EXPECT_FALSE(expect_same_stop(sopt).watchdog.fired);
  }
  {
    SCOPED_TRACE("divergence_abort");
    dist::DistRunOptions sopt = opt;
    sopt.divergence_abort = plain.residual_norm[1];
    EXPECT_FALSE(expect_same_stop(sopt).watchdog.fired);
  }
  {
    // Relax-on-arrival stepping leaves the residual flat for a step here,
    // which the stall check catches.
    SCOPED_TRACE("watchdog");
    dist::DistRunOptions sopt = opt;
    sopt.async = true;
    sopt.watchdog.enabled = true;
    sopt.watchdog.stall_steps = 1;
    const auto d = expect_same_stop(sopt);
    EXPECT_TRUE(d.watchdog.fired);
    EXPECT_EQ(d.watchdog.reason, "residual stalled");
  }
}

// ---------------------------------------------------------------------------
// Full recovery: kill 2 of 16 mid-solve, every solver converges.

TEST(ElasticDriver, AllFourSolversRecoverFromTwoDeaths) {
  auto p = make_problem(24, 16, 51);
  const double r0 = 1.0;  // normalized initial residual
  const dist::DistMethod methods[4] = {
      dist::DistMethod::kBlockJacobi, dist::DistMethod::kMulticolorBlockGs,
      dist::DistMethod::kParallelSouthwell,
      dist::DistMethod::kDistributedSouthwell};
  for (auto m : methods) {
    dist::DistRunOptions opt;
    opt.max_parallel_steps = 40;
    opt.faults.kills.push_back({3, 6});
    opt.faults.kills.push_back({11, 14});
    elastic::RecoveryOptions rec;
    rec.checkpoint_every = 4;
    auto er = elastic::run_elastic(m, p.a, p.part, p.b, p.x0, opt, rec);
    ASSERT_EQ(er.recoveries.size(), 2u) << er.run.method;
    EXPECT_EQ(er.recoveries[0].dead_rank, 3);
    EXPECT_EQ(er.recoveries[1].dead_rank, 11);
    for (const auto& ev : er.recoveries) {
      EXPECT_GT(ev.rows_moved, 0) << er.run.method;
      EXPECT_GT(ev.checkpoint_bytes, 0u);
      EXPECT_LE(ev.resumed_step, ev.detected_step);
    }
    // The dead parts end empty; every row lives on a survivor.
    const auto sizes = er.final_partition.part_sizes();
    EXPECT_EQ(sizes[3], 0) << er.run.method;
    EXPECT_EQ(sizes[11], 0) << er.run.method;
    index_t total = 0;
    for (index_t s : sizes) total += s;
    EXPECT_EQ(total, p.a.rows());
    // Series stay well-formed through the rollbacks.
    ASSERT_EQ(er.run.residual_norm.size(), er.run.steps_taken() + 1);
    ASSERT_EQ(er.run.model_time.size(), er.run.steps_taken() + 1);
    // And the run still converges to the Table-2 tolerance.
    EXPECT_LE(er.run.residual_norm.back(), 0.1 * r0) << er.run.method;
  }
}

TEST(ElasticDriver, RecoveryIsBitIdenticalAcrossBackends) {
  auto p = make_problem(16, 8, 61);
  auto run_once = [&](simmpi::BackendKind backend) {
    dist::DistRunOptions opt;
    opt.max_parallel_steps = 24;
    opt.backend = backend;
    opt.faults.kills.push_back({2, 5});
    elastic::RecoveryOptions rec;
    rec.checkpoint_every = 4;
    return elastic::run_elastic(dist::DistMethod::kParallelSouthwell, p.a,
                                p.part, p.b, p.x0, opt, rec);
  };
  auto seq = run_once(simmpi::BackendKind::kSequential);
  auto thr = run_once(simmpi::BackendKind::kThreadPool);
  ASSERT_EQ(seq.recoveries.size(), 1u);
  ASSERT_EQ(thr.recoveries.size(), 1u);
  EXPECT_EQ(seq.recoveries[0].resumed_step, thr.recoveries[0].resumed_step);
  EXPECT_EQ(seq.last_checkpoint_bytes, thr.last_checkpoint_bytes);
  EXPECT_EQ(seq.run.final_x, thr.run.final_x);  // bitwise
  EXPECT_EQ(seq.run.residual_norm, thr.run.residual_norm);
  EXPECT_EQ(seq.final_partition.part, thr.final_partition.part);
}

// ---------------------------------------------------------------------------
// Trace + analyzer integration: kElastic events round-trip through JSONL
// and the ElasticReport tallies the recovery shape.

TEST(ElasticDriver, TraceEventsRoundTripThroughAnalyzer) {
  auto p = make_problem(16, 8, 71);
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 20;
  opt.trace.enabled = true;
  opt.faults.kills.push_back({5, 4});
  elastic::RecoveryOptions rec;
  rec.checkpoint_every = 4;
  auto er = elastic::run_elastic(dist::DistMethod::kBlockJacobi, p.a, p.part,
                                 p.b, p.x0, opt, rec);
  ASSERT_EQ(er.recoveries.size(), 1u);
  ASSERT_NE(er.run.trace_log, nullptr);
  const std::string text = jsonl_bytes(er.run.trace_log, "elastic");
  auto runs = analysis::parse_jsonl(text);
  ASSERT_EQ(runs.size(), 1u);

  const auto rep = analysis::analyze_run(runs[0]).elastic;
  EXPECT_TRUE(rep.any());
  EXPECT_TRUE(rep.restores_ordered);
  EXPECT_EQ(rep.by_action[analysis::ElasticReport::kKill], 1u);
  EXPECT_EQ(rep.by_action[analysis::ElasticReport::kRestore], 1u);
  EXPECT_EQ(rep.by_action[analysis::ElasticReport::kRepartition], 1u);
  ASSERT_EQ(rep.dead_ranks.size(), 1u);
  EXPECT_EQ(rep.dead_ranks[0], 5);
  EXPECT_GT(rep.checkpoint_bytes_min, 0u);
  EXPECT_EQ(rep.checkpoint_bytes_last, er.last_checkpoint_bytes);
  // The final generation's tracer only saw the post-recovery checkpoints,
  // so the event tally counts those, not every checkpoint ever taken.
  EXPECT_LE(rep.by_action[analysis::ElasticReport::kCheckpoint],
            static_cast<std::uint64_t>(er.checkpoints_taken));
  EXPECT_EQ(rep.rows_moved,
            static_cast<std::uint64_t>(er.recoveries[0].rows_moved));
}

// ---------------------------------------------------------------------------
// Runtime::reset_stats / CommStats audit (the save() stream makes "every
// counter" checkable without naming each field).

TEST(CommStatsAudit, ResetZeroesEveryCounterSincePr5) {
  auto p = make_problem(12, 4, 81);
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 8;
  opt.async = true;        // async_* counters (force-enables resilience)
  opt.ranks_per_node = 2;  // node_* counters
  opt.faults.defaults.drop_probability = 0.2;  // fault counters
  opt.faults.kills.push_back({1, 3});          // msgs_dead_dropped
  dist::DistLayout layout(p.a, p.part);
  dist::RunHarness h(dist::DistMethod::kDistributedSouthwell, layout, p.b,
                     p.x0, opt);
  for (int k = 0; k < 8; ++k) h.solver().step();

  std::vector<std::uint64_t> before;
  h.runtime().stats().save(before);
  ASSERT_EQ(before.size(), simmpi::CommStats::saved_words(4, 0));
  // The run exercised enough subsystems that many words moved.
  int nonzero = 0;
  for (std::size_t i = 2; i < before.size(); ++i) {
    if (before[i] != 0) ++nonzero;
  }
  EXPECT_GT(nonzero, 5);

  h.runtime().reset_stats();
  std::vector<std::uint64_t> after;
  h.runtime().stats().save(after);
  ASSERT_EQ(after.size(), before.size());
  EXPECT_EQ(after[0], before[0]);  // shape: rank count survives reset
  EXPECT_EQ(after[1], before[1]);  // shape: tenant count survives reset
  for (std::size_t i = 2; i < after.size(); ++i) {
    EXPECT_EQ(after[i], 0u) << "counter word " << i << " not cleared";
  }
}

TEST(CommStatsAudit, SaveLoadRoundTripsAndValidates) {
  auto p = make_problem(10, 4, 91);
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 5;
  opt.faults.defaults.duplicate_probability = 0.1;
  dist::DistLayout layout(p.a, p.part);
  dist::RunHarness h(dist::DistMethod::kBlockJacobi, layout, p.b, p.x0, opt);
  for (int k = 0; k < 5; ++k) h.solver().step();

  std::vector<std::uint64_t> saved;
  h.runtime().stats().save(saved);
  simmpi::CommStats fresh(4);
  fresh.load(saved);
  std::vector<std::uint64_t> resaved;
  fresh.save(resaved);
  EXPECT_EQ(resaved, saved);

  // Rank-count mismatch and truncated streams are rejected.
  simmpi::CommStats wrong_ranks(5);
  EXPECT_THROW(wrong_ranks.load(saved), util::CheckError);
  auto truncated = saved;
  truncated.pop_back();
  simmpi::CommStats short_stats(4);
  EXPECT_THROW(short_stats.load(truncated), util::CheckError);
}

}  // namespace
}  // namespace dsouth
