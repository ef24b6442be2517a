/// Tests for the deterministic fault-injection subsystem (src/faults) and
/// the solver-side recovery path (docs/resilience.md): FaultSchedule
/// semantics, runtime fence application, zero-plan byte-identity,
/// cross-backend bit-reproducibility of faulted runs, wire corruption
/// properties (malformed payloads reject with structured reasons, never
/// misparse), solver convergence under faults with resilience on, the
/// driver's divergence watchdog, and reorder faults — the repository's one
/// delayed-delivery mechanism: runtime semantics, and the robustness of the
/// distributed methods when one-sided writes land late and out of order
/// (the asynchronous regime the paper's deadlock discussion, §2.4 and §3,
/// is ultimately about).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "dist/harness.hpp"
#include "faults/fault_plan.hpp"
#include "graph/partition.hpp"
#include "simmpi/runtime.hpp"
#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "sparse/vec.hpp"
#include "util/rng.hpp"
#include "wire/wire.hpp"

namespace dsouth {
namespace {

using sparse::CsrMatrix;
using sparse::index_t;
using sparse::value_t;

// ---------------------------------------------------------------------------
// FaultPlan / FaultSchedule semantics.

TEST(FaultPlan, AnyDetectsEveryKnob) {
  EXPECT_FALSE(faults::FaultPlan{}.any());

  faults::FaultPlan drop;
  drop.defaults.drop_probability = 0.1;
  EXPECT_TRUE(drop.any());

  faults::FaultPlan stall;
  stall.stalls.push_back({1, 5, 3});
  EXPECT_TRUE(stall.any());
  stall.stalls.back().epochs = 0;  // an empty stall window
  EXPECT_FALSE(stall.any());
}

TEST(FaultSchedule, DecisionsAreStatelessAndSeedDependent) {
  faults::FaultPlan plan;
  plan.defaults.drop_probability = 0.3;
  plan.defaults.duplicate_probability = 0.3;
  plan.defaults.corrupt_probability = 0.3;
  faults::FaultSchedule s1(plan, 4);
  faults::FaultSchedule s2(plan, 4);
  plan.seed ^= 1;
  faults::FaultSchedule s3(plan, 4);

  bool seed_changed_something = false;
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    const auto a = s1.decide(7, 1, 2, seq, 16);
    const auto b = s1.decide(7, 1, 2, seq, 16);  // stateless: call order
    const auto c = s2.decide(7, 1, 2, seq, 16);  // and instance independent
    EXPECT_EQ(a.drop, b.drop);
    EXPECT_EQ(a.duplicate, b.duplicate);
    EXPECT_EQ(a.corrupt, b.corrupt);
    EXPECT_EQ(a.corrupt_index, b.corrupt_index);
    EXPECT_EQ(a.corrupt_bit, b.corrupt_bit);
    EXPECT_EQ(a.drop, c.drop);
    EXPECT_EQ(a.duplicate, c.duplicate);
    EXPECT_EQ(a.corrupt, c.corrupt);
    const auto d = s3.decide(7, 1, 2, seq, 16);
    if (a.drop != d.drop || a.duplicate != d.duplicate ||
        a.corrupt != d.corrupt) {
      seed_changed_something = true;
    }
  }
  EXPECT_TRUE(seed_changed_something);
}

TEST(FaultSchedule, DropShortCircuits) {
  faults::FaultPlan plan;
  plan.defaults = {.drop_probability = 1.0,
                   .duplicate_probability = 1.0,
                   .corrupt_probability = 1.0};
  faults::FaultSchedule s(plan, 3);
  for (std::uint64_t seq = 0; seq < 50; ++seq) {
    const auto hit = s.decide(0, 0, 1, seq, 8);
    EXPECT_TRUE(hit.drop);
    EXPECT_FALSE(hit.duplicate);  // a dropped message suffers nothing else
    EXPECT_FALSE(hit.corrupt);
  }
}

TEST(FaultSchedule, TruncationSupersedesCorruptionAndShortens) {
  faults::FaultPlan plan;
  plan.defaults.corrupt_probability = 1.0;
  plan.defaults.truncate_probability = 1.0;
  faults::FaultSchedule s(plan, 2);
  for (std::uint64_t seq = 0; seq < 50; ++seq) {
    const auto d = s.decide(3, 0, 1, seq, 10);
    EXPECT_TRUE(d.truncate);
    EXPECT_FALSE(d.corrupt);
    EXPECT_LT(d.truncate_len, 10u);
  }
}

TEST(FaultSchedule, StallWindows) {
  faults::FaultPlan plan;
  plan.stalls.push_back({1, 3, 2});  // rank 1 silent in epochs 3 and 4
  faults::FaultSchedule s(plan, 2);
  EXPECT_EQ(s.hold_until(1, 2), 2u);
  EXPECT_EQ(s.hold_until(1, 3), 5u);
  EXPECT_EQ(s.hold_until(1, 4), 5u);
  EXPECT_EQ(s.hold_until(1, 5), 5u);
  EXPECT_FALSE(s.stalled(1, 2));
  EXPECT_TRUE(s.stalled(1, 3));
  EXPECT_FALSE(s.stalled(0, 3));
}

// ---------------------------------------------------------------------------
// Runtime application at the fence.

TEST(FaultRuntime, DropLosesTheMessageButChargesTheSender) {
  faults::FaultPlan plan;
  plan.defaults.drop_probability = 1.0;
  faults::FaultSchedule schedule(plan, 2);
  simmpi::Runtime rt(2);
  rt.set_fault_schedule(&schedule);
  rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{1.0, 2.0});
  rt.fence();
  EXPECT_TRUE(rt.window(1).empty());
  EXPECT_EQ(rt.stats().dropped_messages(), 1u);
  EXPECT_EQ(rt.stats().total_messages(), 1u);  // the sender still paid
}

TEST(FaultRuntime, DuplicateDeliversTwoIdenticalCopies) {
  faults::FaultPlan plan;
  plan.defaults.duplicate_probability = 1.0;
  faults::FaultSchedule schedule(plan, 2);
  simmpi::Runtime rt(2);
  rt.set_fault_schedule(&schedule);
  rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{1.0, 2.0, 3.0});
  rt.fence();
  ASSERT_EQ(rt.window(1).size(), 2u);
  EXPECT_EQ(rt.window(1)[0].payload, rt.window(1)[1].payload);
  EXPECT_EQ(rt.stats().duplicated_messages(), 1u);
}

TEST(FaultRuntime, CorruptFlipsExactlyOneBit) {
  faults::FaultPlan plan;
  plan.defaults.corrupt_probability = 1.0;
  faults::FaultSchedule schedule(plan, 2);
  simmpi::Runtime rt(2);
  rt.set_fault_schedule(&schedule);
  const std::vector<double> sent{1.0, 2.0, 3.0, 4.0};
  rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>(sent));
  rt.fence();
  ASSERT_EQ(rt.window(1).size(), 1u);
  const auto& got = rt.window(1)[0].payload;
  ASSERT_EQ(got.size(), sent.size());
  int flipped_bits = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    flipped_bits += std::popcount(std::bit_cast<std::uint64_t>(got[i]) ^
                                  std::bit_cast<std::uint64_t>(sent[i]));
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(rt.stats().corrupted_messages(), 1u);
}

TEST(FaultRuntime, TruncateDeliversAPrefix) {
  faults::FaultPlan plan;
  plan.defaults.truncate_probability = 1.0;
  faults::FaultSchedule schedule(plan, 2);
  simmpi::Runtime rt(2);
  rt.set_fault_schedule(&schedule);
  const std::vector<double> sent{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>(sent));
  rt.fence();
  ASSERT_EQ(rt.window(1).size(), 1u);
  const auto& got = rt.window(1)[0].payload;
  ASSERT_LT(got.size(), sent.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], sent[i]);
  EXPECT_EQ(rt.stats().corrupted_messages(), 1u);  // truncation counts here
}

TEST(FaultRuntime, StalledSenderTrafficLandsWhenTheWindowCloses) {
  faults::FaultPlan plan;
  plan.stalls.push_back({0, 0, 2});  // rank 0 silent in epochs 0 and 1
  faults::FaultSchedule schedule(plan, 2);
  simmpi::Runtime rt(2);
  rt.set_fault_schedule(&schedule);
  rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{1.0});
  rt.fence();  // closes epoch 0: held
  EXPECT_TRUE(rt.window(1).empty());
  EXPECT_EQ(rt.delayed_in_flight(), 1u);
  rt.fence();  // closes epoch 1: still held
  EXPECT_TRUE(rt.window(1).empty());
  rt.fence();  // closes epoch 2: the stall is over
  EXPECT_EQ(rt.window(1).size(), 1u);
  EXPECT_EQ(rt.delayed_in_flight(), 0u);
}

/// Regression: reset_stats must clear the fault counters too.
TEST(FaultRuntime, ResetStatsClearsFaultCounters) {
  faults::FaultPlan plan;
  plan.defaults.drop_probability = 1.0;
  faults::FaultSchedule schedule(plan, 2);
  simmpi::Runtime rt(2);
  rt.set_fault_schedule(&schedule);
  rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{1.0});
  rt.fence();
  EXPECT_EQ(rt.stats().dropped_messages(), 1u);
  rt.reset_stats();
  EXPECT_EQ(rt.stats().dropped_messages(), 0u);
  EXPECT_EQ(rt.stats().duplicated_messages(), 0u);
  EXPECT_EQ(rt.stats().corrupted_messages(), 0u);
  EXPECT_EQ(rt.stats().total_messages(), 0u);
}

// ---------------------------------------------------------------------------
// Reorder faults at the runtime level: each message is, with probability
// p, held 1..max_reorder_epochs extra fences — so same-source messages may
// be observed out of order.

faults::FaultPlan reorder_plan(double probability, int max_epochs,
                               std::uint64_t seed = faults::FaultPlan{}.seed) {
  faults::FaultPlan plan;
  plan.seed = seed;
  plan.defaults.reorder_probability = probability;
  plan.max_reorder_epochs = max_epochs;
  return plan;
}

TEST(DelayedDelivery, NoDelayModelDeliversNextFence) {
  simmpi::Runtime rt(2);
  rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{1.0});
  rt.fence();
  EXPECT_EQ(rt.window(1).size(), 1u);
  EXPECT_EQ(rt.delayed_in_flight(), 0u);
}

TEST(DelayedDelivery, AllMessagesDelayedLandLater) {
  const faults::FaultSchedule schedule(reorder_plan(1.0, 1), 2);
  simmpi::Runtime rt(2);
  rt.set_fault_schedule(&schedule);
  rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{1.0});
  rt.fence();
  EXPECT_TRUE(rt.window(1).empty());
  EXPECT_EQ(rt.delayed_in_flight(), 1u);
  rt.fence();  // exactly one extra fence
  EXPECT_EQ(rt.window(1).size(), 1u);
  EXPECT_EQ(rt.delayed_in_flight(), 0u);
}

TEST(DelayedDelivery, DrainDelaysFlushesEverything) {
  const faults::FaultSchedule schedule(reorder_plan(1.0, 3), 3);
  simmpi::Runtime rt(3);
  rt.set_fault_schedule(&schedule);
  for (int k = 0; k < 5; ++k) {
    rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{double(k)});
    rt.put(2, 1, simmpi::MsgTag::kSolve, std::vector<double>{double(k)});
  }
  rt.drain_delayed();
  EXPECT_EQ(rt.delayed_in_flight(), 0u);
  EXPECT_EQ(rt.window(1).size(), 10u);
}

TEST(DelayedDelivery, DeterministicForSeed) {
  auto run = [] {
    const faults::FaultSchedule schedule(reorder_plan(0.5, 2, 42), 2);
    simmpi::Runtime rt(2);
    rt.set_fault_schedule(&schedule);
    std::vector<std::size_t> arrivals;
    for (int k = 0; k < 20; ++k) {
      rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{double(k)});
      rt.fence();
      arrivals.push_back(rt.window(1).size());
    }
    return arrivals;
  };
  EXPECT_EQ(run(), run());
}

TEST(DelayedDelivery, DelayNeverExceedsConfiguredBound) {
  // Every message lands at most max_reorder_epochs fences after the fence
  // that would have delivered it — the staleness bound the heartbeat
  // hardening relies on.
  constexpr int kMaxDelay = 3;
  const faults::FaultSchedule schedule(reorder_plan(1.0, kMaxDelay), 2);
  simmpi::Runtime rt(2);
  rt.set_fault_schedule(&schedule);
  std::vector<int> arrive_fence(10, -1);
  for (int f = 0; f < 10 + kMaxDelay; ++f) {
    if (f < 10) {
      rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{double(f)});
    }
    rt.fence();
    for (const auto& m : rt.window(1)) {
      arrive_fence[static_cast<std::size_t>(m.payload[0])] = f;
    }
    rt.consume(1);
  }
  for (int k = 0; k < 10; ++k) {
    ASSERT_GE(arrive_fence[static_cast<std::size_t>(k)], 0) << "msg " << k;
    const int delay = arrive_fence[static_cast<std::size_t>(k)] - k;
    EXPECT_GE(delay, 1);  // probability 1: every message is held
    EXPECT_LE(delay, kMaxDelay);
  }
}

TEST(DelayedDelivery, SameSourceCanBeObservedOutOfOrder) {
  // Two same-epoch puts from one source: if the first draws a hold and the
  // second does not, the receiver observes them out of order across
  // fences — the staleness regime the DS livelock test pins down. Scan
  // seeds until the reordering shows up (deterministically).
  bool reordered = false;
  for (std::uint64_t seed = 0; seed < 200 && !reordered; ++seed) {
    const faults::FaultSchedule schedule(reorder_plan(0.5, 2, seed), 2);
    simmpi::Runtime rt(2);
    rt.set_fault_schedule(&schedule);
    rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{0.0});
    rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{1.0});
    rt.fence();
    const auto win = rt.window(1);
    if (win.size() == 1 && win[0].payload[0] == 1.0) reordered = true;
  }
  EXPECT_TRUE(reordered);
}

// ---------------------------------------------------------------------------
// Wire corruption properties: malformed payloads reject with a structured
// DecodeError, never misparse or crash.

TEST(WireCorruption, EveryEnvelopeBitFlipIsDetected) {
  const std::size_t nb = 3;
  const std::size_t body_len = wire::encoded_doubles(
      wire::RecordType::kNormUpdate, nb);
  std::vector<double> env(wire::kEnvelopeDoubles + body_len);
  auto body = wire::begin_envelope(env, /*seq=*/41);
  auto rec = wire::begin_record(wire::RecordType::kNormUpdate, 0.25, 0.0,
                                body, nb);
  for (std::size_t i = 0; i < nb; ++i) rec.dx[i] = 0.5 * double(i + 1);
  wire::seal_envelope(env);
  ASSERT_NO_THROW(wire::decode_envelope(env));

  // The checksum covers seq, inner_len and the body; magic and version
  // flips are caught structurally. So EVERY single-bit flip must reject.
  for (std::size_t slot = 0; slot < env.size(); ++slot) {
    for (int bit = 0; bit < 64; ++bit) {
      std::vector<double> bad = env;
      bad[slot] = std::bit_cast<double>(
          std::bit_cast<std::uint64_t>(bad[slot]) ^ (1ULL << bit));
      EXPECT_THROW(wire::decode_envelope(bad), wire::DecodeError)
          << "slot " << slot << " bit " << bit;
    }
  }
}

TEST(WireCorruption, EveryEnvelopeTruncationIsDetected) {
  const std::size_t nb = 4;
  const std::size_t body_len =
      wire::encoded_doubles(wire::RecordType::kSolveUpdate, nb);
  std::vector<double> env(wire::kEnvelopeDoubles + body_len);
  auto body = wire::begin_envelope(env, /*seq=*/7);
  auto rec = wire::begin_record(wire::RecordType::kSolveUpdate, 0.5, 0.25,
                                body, nb);
  for (std::size_t i = 0; i < nb; ++i) {
    rec.dx[i] = double(i);
    rec.rb[i] = -double(i);
  }
  wire::seal_envelope(env);
  for (std::size_t len = 0; len < env.size(); ++len) {
    std::span<const double> prefix(env.data(), len);
    EXPECT_THROW(wire::decode_envelope(prefix), wire::DecodeError)
        << "length " << len;
  }
}

/// Random bit flips and truncations of bare v1 records either decode (a
/// flipped *value* bit is indistinguishable from a legitimate payload —
/// that is exactly why resilient mode wraps records in checksummed
/// envelopes) or throw DecodeError; nothing else may happen.
TEST(WireCorruption, BareRecordsRejectStructurallyOrDecode) {
  struct Case {
    wire::Family family;
    wire::RecordType type;
    double norm2, gamma2;
  };
  const Case cases[] = {
      {wire::Family::kDelta, wire::RecordType::kGhostDelta, 0.0, 0.0},
      {wire::Family::kNorm, wire::RecordType::kNormUpdate, 0.5, 0.0},
      {wire::Family::kNorm, wire::RecordType::kResidualNorm, 0.5, 0.0},
      {wire::Family::kEstimate, wire::RecordType::kSolveUpdate, 0.5, 0.25},
      {wire::Family::kEstimate, wire::RecordType::kCorrection, 0.5, 0.25},
  };
  const std::size_t nb = 3;
  util::Rng rng(0xC0FFEEULL);
  for (const auto& c : cases) {
    std::vector<double> payload(wire::encoded_doubles(c.type, nb));
    auto rec = wire::begin_record(c.type, c.norm2, c.gamma2, payload, nb);
    for (std::size_t i = 0; i < rec.dx.size(); ++i) rec.dx[i] = 0.125;
    for (std::size_t i = 0; i < rec.rb.size(); ++i) rec.rb[i] = -0.125;
    ASSERT_NO_THROW(wire::decode_record(c.family, payload, nb));

    for (int trial = 0; trial < 500; ++trial) {
      std::vector<double> bad = payload;
      if (rng.next_u64() % 2 == 0 && !bad.empty()) {
        const auto slot = rng.next_u64() % bad.size();
        const auto bit = rng.next_u64() % 64;
        bad[slot] = std::bit_cast<double>(
            std::bit_cast<std::uint64_t>(bad[slot]) ^ (1ULL << bit));
      } else {
        bad.resize(rng.next_u64() % (bad.size() + 1));
      }
      try {
        (void)wire::decode_record(c.family, bad, nb);
      } catch (const wire::DecodeError& e) {
        // Structured rejection: the reason must be a known kind.
        EXPECT_NE(wire::decode_error_kind_name(e.kind()), nullptr);
      }
      // Any other exception type escapes and fails the test.
    }
  }
}

// ---------------------------------------------------------------------------
// Driver-level identity and reproducibility.

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

faults::FaultPlan lossy_plan() {
  faults::FaultPlan plan;
  plan.defaults.drop_probability = 0.02;
  plan.defaults.duplicate_probability = 0.01;
  plan.defaults.corrupt_probability = 0.01;
  plan.defaults.truncate_probability = 0.005;
  return plan;
}

TEST(FaultDriver, ZeroPlanIsBitIdenticalToNoPlan) {
  auto p = make_problem(12, 8, 17);
  dist::DistRunOptions plain;
  plain.max_parallel_steps = 20;
  dist::DistRunOptions zeroed = plain;
  zeroed.faults = faults::FaultPlan{};  // all-zero: must never attach
  zeroed.watchdog.enabled = true;       // pure observer on a sane run
  for (auto m : {dist::DistMethod::kParallelSouthwell,
                 dist::DistMethod::kDistributedSouthwell}) {
    auto a = dist::run_distributed(m, p.a, p.part, p.b, p.x0, plain);
    auto b = dist::run_distributed(m, p.a, p.part, p.b, p.x0, zeroed);
    EXPECT_EQ(a.residual_norm, b.residual_norm);
    EXPECT_EQ(a.final_x, b.final_x);
    EXPECT_EQ(a.comm_totals.msgs, b.comm_totals.msgs);
    EXPECT_EQ(a.comm_totals.bytes, b.comm_totals.bytes);
    EXPECT_FALSE(a.fault_summary.has_value());
    EXPECT_FALSE(b.fault_summary.has_value());
    EXPECT_FALSE(b.watchdog.fired);
  }
}

TEST(FaultDriver, FaultedRunsAreBitIdenticalAcrossBackends) {
  auto p = make_problem(12, 8, 17);
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 30;
  opt.faults = lossy_plan();
  opt.resilience.enabled = true;
  for (auto m : {dist::DistMethod::kBlockJacobi,
                 dist::DistMethod::kParallelSouthwell,
                 dist::DistMethod::kDistributedSouthwell,
                 dist::DistMethod::kMulticolorBlockGs}) {
    auto seq_opt = opt;
    seq_opt.backend = simmpi::BackendKind::kSequential;
    auto thr_opt = opt;
    thr_opt.backend = simmpi::BackendKind::kThreadPool;
    thr_opt.num_threads = 3;
    auto a = dist::run_distributed(m, p.a, p.part, p.b, p.x0, seq_opt);
    auto b = dist::run_distributed(m, p.a, p.part, p.b, p.x0, thr_opt);
    EXPECT_EQ(a.residual_norm, b.residual_norm) << dist::method_name(m);
    EXPECT_EQ(a.final_x, b.final_x) << dist::method_name(m);
    ASSERT_TRUE(a.fault_summary.has_value());
    ASSERT_TRUE(b.fault_summary.has_value());
    EXPECT_EQ(a.fault_summary->msgs_dropped, b.fault_summary->msgs_dropped);
    EXPECT_EQ(a.fault_summary->msgs_corrupted,
              b.fault_summary->msgs_corrupted);
    EXPECT_EQ(a.fault_summary->rejected_corrupt,
              b.fault_summary->rejected_corrupt);
    EXPECT_EQ(a.fault_summary->rejected_stale,
              b.fault_summary->rejected_stale);
    EXPECT_EQ(a.fault_summary->refreshes_sent,
              b.fault_summary->refreshes_sent);
    EXPECT_GT(a.fault_summary->msgs_dropped, 0u) << dist::method_name(m);
  }
}

// ---------------------------------------------------------------------------
// Recovery: every method keeps converging under message loss, duplication
// and corruption once resilience is on.

class FaultRecovery : public ::testing::TestWithParam<dist::DistMethod> {};

TEST_P(FaultRecovery, ConvergesUnderLossDuplicationAndCorruption) {
  auto p = make_problem(14, 12, 31);
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 120;
  opt.faults = lossy_plan();
  opt.resilience.enabled = true;
  opt.resilience.refresh_period = 6;
  opt.watchdog.enabled = true;
  auto r = dist::run_distributed(GetParam(), p.a, p.part, p.b, p.x0, opt);
  EXPECT_FALSE(r.watchdog.fired)
      << dist::method_name(GetParam()) << ": " << r.watchdog.reason;
  EXPECT_LT(r.residual_norm.back(), 0.05) << dist::method_name(GetParam());
  ASSERT_TRUE(r.fault_summary.has_value());
  EXPECT_GT(r.fault_summary->msgs_dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Methods, FaultRecovery,
    ::testing::Values(dist::DistMethod::kBlockJacobi,
                      dist::DistMethod::kParallelSouthwell,
                      dist::DistMethod::kDistributedSouthwell,
                      dist::DistMethod::kMulticolorBlockGs),
    [](const auto& info) {
      return std::string(dist::method_name(info.param));
    });

// ---------------------------------------------------------------------------
// Reorder faults at the driver level. Plain solvers (resilience off) apply
// late updates as ordinary linear corrections, so bounded single-epoch
// holds are harmless; multi-epoch holds reorder a rank's own messages.

/// Every method keeps converging under single-epoch holds: they preserve
/// per-source ordering across the two fences of a parallel step.
class DelayRobustness
    : public ::testing::TestWithParam<dist::DistMethod> {};

TEST_P(DelayRobustness, ConvergesUnderSingleEpochDelays) {
  auto p = make_problem(14, 12, 31);
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 120;
  opt.faults = reorder_plan(0.3, 1);
  auto r = dist::run_distributed(GetParam(), p.a, p.part, p.b, p.x0, opt);
  EXPECT_LT(r.residual_norm.back(), 0.05)
      << dist::method_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Methods, DelayRobustness,
    ::testing::Values(dist::DistMethod::kBlockJacobi,
                      dist::DistMethod::kParallelSouthwell,
                      dist::DistMethod::kDistributedSouthwell,
                      dist::DistMethod::kMulticolorBlockGs),
    [](const auto& info) {
      return std::string(dist::method_name(info.param));
    });

/// Multi-epoch holds (p = 0.3, k = 3) on this problem, measured over fault
/// seeds 0xFA17 + 0..19 at 120 steps: plain DS ends above 0.05 in 9 of 20
/// seeds, Parallel Southwell converges in 11 of 20, and DS with a
/// heartbeat every 10 steps converges in 20 of 20. Seed 0xFA17 + 15 pins
/// one instance of each outcome (DS 0.61, PS 2.1e-3, DS + heartbeat
/// 1.3e-4); deterministic draws make it a stable regression anchor.
constexpr std::uint64_t kPinnedReorderSeed = 0xFA17ULL + 15;

TEST(DelayRobustness, PlainDsCanLivelockUnderReordering) {
  // Once a rank's own messages are reordered, DS's Γ̃ bookkeeping can lie
  // permanently (a neighbor's overestimate the owner believes it already
  // corrected) and the method stalls. Parallel Southwell's unconditional
  // re-advertising recovers on this seed — but only on about half of them.
  auto p = make_problem(14, 12, 31);
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 120;
  opt.faults = reorder_plan(0.3, 3, kPinnedReorderSeed);
  auto ds = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                  p.a, p.part, p.b, p.x0, opt);
  EXPECT_GT(ds.residual_norm.back(), 0.05);  // stalled
  auto ps = dist::run_distributed(dist::DistMethod::kParallelSouthwell, p.a,
                                  p.part, p.b, p.x0, opt);
  EXPECT_LT(ps.residual_norm.back(), 0.05);
}

TEST(DelayRobustness, HeartbeatHardensDsAgainstReordering) {
  // The extension fix: a periodic unconditional residual broadcast bounds
  // the Γ̃ staleness and restores convergence in the same regime.
  auto p = make_problem(14, 12, 31);
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 120;
  opt.faults = reorder_plan(0.3, 3, kPinnedReorderSeed);
  opt.ds.heartbeat_period = 10;
  auto r = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                 p.a, p.part, p.b, p.x0, opt);
  EXPECT_LT(r.residual_norm.back(), 0.05);
}

TEST(DelayRobustness, HeartbeatIsFreeWithoutDelays) {
  // Heartbeats add messages but must not change convergence without
  // delays; with the period larger than the run they change nothing.
  auto p = make_problem(10, 8, 33);
  dist::DistRunOptions plain;
  plain.max_parallel_steps = 25;
  dist::DistRunOptions hb = plain;
  hb.ds.heartbeat_period = 100;  // never fires in 25 steps
  auto a = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                 p.a, p.part, p.b, p.x0, plain);
  auto b = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                 p.a, p.part, p.b, p.x0, hb);
  EXPECT_EQ(a.residual_norm, b.residual_norm);
}

TEST(DelayRobustness, ResidualStaysConsistentAfterDrain) {
  // Under holds, in-flight Δx makes the concatenated local residuals
  // differ from the true residual of the gathered iterate — but the local
  // view is exactly "true residual minus unapplied linear corrections",
  // so once everything lands and is absorbed the two agree to rounding.
  // Driven step by step (the driver's bulk-synchronous loop doesn't
  // drain).
  auto p = make_problem(12, 8, 32);
  dist::DistLayout layout(p.a, p.part);
  dist::DistRunOptions opt;
  opt.faults = reorder_plan(0.5, 2);
  dist::RunHarness h(dist::DistMethod::kBlockJacobi, layout, p.b, p.x0, opt);
  dist::DistStationarySolver& solver = h.solver();
  for (int k = 0; k < 10; ++k) solver.step();
  auto x = solver.gather_x();
  std::vector<value_t> r(x.size());
  p.a.residual(p.b, x, r);
  const double lagging = solver.global_residual_norm();
  h.runtime().drain_delayed();
  solver.absorb_all();
  EXPECT_NE(lagging, solver.global_residual_norm());  // holds were pending
  EXPECT_NEAR(solver.global_residual_norm(), sparse::norm2(r),
              1e-12 * sparse::norm2(r));
}

// ---------------------------------------------------------------------------
// Watchdog: faulted runs stop deterministically, they never hang.

TEST(Watchdog, ReportsDivergenceUnderUncheckedCorruption) {
  // Resilience OFF: corrupted kGhostDelta payloads decode as legitimate
  // boundary deltas (no checksum on the v1 path), so bit flips in an
  // exponent eventually blow the iterate up. The watchdog must stop the
  // run and say why, well before the step budget.
  auto p = make_problem(12, 8, 17);
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 400;
  opt.faults.defaults.corrupt_probability = 0.2;
  opt.watchdog.enabled = true;
  auto r = dist::run_distributed(dist::DistMethod::kBlockJacobi, p.a, p.part,
                                 p.b, p.x0, opt);
  EXPECT_TRUE(r.watchdog.fired);
  EXPECT_FALSE(r.watchdog.reason.empty());
  EXPECT_LE(r.steps_taken(), 400u);
  // The recorded history keeps everything up to the stop.
  EXPECT_EQ(r.residual_norm.size(), r.steps_taken() + 1);
}

TEST(Watchdog, StallCheckFiresWhenNothingImproves) {
  // Drop every message: each solver converges to its block-local fixed
  // point and then cannot improve. The stall check must end the run.
  auto p = make_problem(12, 8, 17);
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 400;
  opt.faults.defaults.drop_probability = 1.0;
  opt.resilience.enabled = true;
  opt.watchdog.enabled = true;
  opt.watchdog.stall_steps = 10;
  auto r = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                 p.a, p.part, p.b, p.x0, opt);
  EXPECT_TRUE(r.watchdog.fired);
  EXPECT_LT(r.steps_taken(), 400u);
}

}  // namespace
}  // namespace dsouth
