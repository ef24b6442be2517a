#include "simmpi/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/error.hpp"

namespace dsouth::simmpi {
namespace {

TEST(Runtime, MessagesInvisibleUntilFence) {
  Runtime rt(3);
  std::vector<double> data{1.0, 2.0};
  rt.put(0, 1, MsgTag::kSolve, data);
  EXPECT_TRUE(rt.window(1).empty());
  rt.fence();
  ASSERT_EQ(rt.window(1).size(), 1u);
  EXPECT_EQ(rt.window(1)[0].source, 0);
  EXPECT_EQ(rt.window(1)[0].tag, MsgTag::kSolve);
  EXPECT_EQ(rt.window(1)[0].payload, data);
}

TEST(Runtime, WindowAccumulatesUntilConsumed) {
  // One-sided semantics: delivered data persists until the target
  // processes it (consume); it is NOT dropped by an unrelated fence.
  Runtime rt(2);
  rt.put(0, 1, MsgTag::kSolve, std::vector<double>{1.0});
  rt.fence();
  EXPECT_EQ(rt.window(1).size(), 1u);
  rt.fence();  // no traffic this epoch
  EXPECT_EQ(rt.window(1).size(), 1u);
  rt.put(0, 1, MsgTag::kSolve, std::vector<double>{2.0});
  rt.fence();
  EXPECT_EQ(rt.window(1).size(), 2u);
  rt.consume(1);
  EXPECT_TRUE(rt.window(1).empty());
}

TEST(Runtime, DeliveryIsSortedBySourceThenSendOrder) {
  Runtime rt(4);
  rt.put(2, 0, MsgTag::kSolve, std::vector<double>{20.0});
  rt.put(1, 0, MsgTag::kSolve, std::vector<double>{10.0});
  rt.put(2, 0, MsgTag::kResidual, std::vector<double>{21.0});
  rt.fence();
  auto win = rt.window(0);
  ASSERT_EQ(win.size(), 3u);
  EXPECT_EQ(win[0].source, 1);
  EXPECT_EQ(win[1].source, 2);
  EXPECT_DOUBLE_EQ(win[1].payload[0], 20.0);
  EXPECT_EQ(win[2].source, 2);
  EXPECT_DOUBLE_EQ(win[2].payload[0], 21.0);
}

TEST(Runtime, SelfPutThrows) {
  Runtime rt(2);
  EXPECT_THROW(rt.put(0, 0, MsgTag::kSolve, std::vector<double>{}),
               util::CheckError);
}

TEST(Runtime, StatsCountPerTagAndPerRank) {
  Runtime rt(4);
  rt.put(0, 1, MsgTag::kSolve, std::vector<double>{1.0, 2.0});
  rt.put(0, 2, MsgTag::kSolve, std::vector<double>{1.0});
  rt.put(3, 0, MsgTag::kResidual, std::vector<double>{5.0});
  rt.fence();
  const auto& s = rt.stats();
  EXPECT_EQ(s.total_messages(), 3u);
  EXPECT_EQ(s.total_messages(MsgTag::kSolve), 2u);
  EXPECT_EQ(s.total_messages(MsgTag::kResidual), 1u);
  EXPECT_EQ(s.messages_from(0), 2u);
  EXPECT_EQ(s.messages_from(3), 1u);
  EXPECT_DOUBLE_EQ(s.comm_cost(), 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(s.comm_cost(MsgTag::kResidual), 0.25);
  EXPECT_EQ(s.total_bytes(),
            message_bytes(2) + message_bytes(1) + message_bytes(1));
}

TEST(Runtime, StatsAccumulateAcrossEpochs) {
  Runtime rt(2);
  rt.put(0, 1, MsgTag::kSolve, std::vector<double>{1.0});
  rt.fence();
  rt.put(1, 0, MsgTag::kSolve, std::vector<double>{1.0});
  rt.fence();
  EXPECT_EQ(rt.stats().total_messages(), 2u);
  EXPECT_EQ(rt.epochs_completed(), 2u);
}

TEST(MachineModel, RankCostIsAffine) {
  MachineModel m;
  m.alpha = 1e-6;
  m.beta = 1e-9;
  m.flop_time = 1e-10;
  EXPECT_DOUBLE_EQ(m.rank_cost(1000.0, 2, 100),
                   1000.0 * 1e-10 + 2 * 1e-6 + 100 * 1e-9);
}

TEST(MachineModel, EpochAddsContentionAndOverhead) {
  MachineModel m;
  m.gamma = 1e-6;
  m.sigma = 5e-7;
  const double t = m.epoch_seconds(1e-5, 100, 10);
  EXPECT_DOUBLE_EQ(t, 1e-5 + 1e-6 * 10.0 + 5e-7);
}

TEST(Runtime, ModelTimeTracksCriticalPath) {
  MachineModel m;
  m.alpha = 1.0;  // 1 second per message, everything else 0
  m.beta = 0.0;
  m.flop_time = 0.0;
  m.gamma = 0.0;
  m.sigma = 0.0;
  Runtime rt(3, m);
  // Rank 0 sends two messages, rank 1 sends one: critical path = 2.
  rt.put(0, 1, MsgTag::kSolve, std::vector<double>{});
  rt.put(0, 2, MsgTag::kSolve, std::vector<double>{});
  rt.put(1, 2, MsgTag::kSolve, std::vector<double>{});
  rt.fence();
  EXPECT_DOUBLE_EQ(rt.model_time_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(rt.last_epoch_seconds(), 2.0);
  // Idle epoch costs only sigma (0 here).
  rt.fence();
  EXPECT_DOUBLE_EQ(rt.model_time_seconds(), 2.0);
}

TEST(Runtime, FlopsEnterTheMax) {
  MachineModel m;
  m.alpha = 0.0;
  m.beta = 0.0;
  m.gamma = 0.0;
  m.sigma = 0.0;
  m.flop_time = 0.5;
  Runtime rt(2, m);
  rt.add_flops(0, 10.0);
  rt.add_flops(1, 4.0);
  rt.fence();
  EXPECT_DOUBLE_EQ(rt.model_time_seconds(), 5.0);
  // Counters reset per epoch.
  rt.fence();
  EXPECT_DOUBLE_EQ(rt.model_time_seconds(), 5.0);
}

TEST(Runtime, InvalidRanksThrow) {
  Runtime rt(2);
  EXPECT_THROW(rt.put(0, 5, MsgTag::kSolve, std::vector<double>{}),
               util::CheckError);
  EXPECT_THROW(rt.add_flops(-1, 1.0), util::CheckError);
  EXPECT_THROW(rt.window(2), util::CheckError);
  EXPECT_THROW(rt.add_flops(0, -1.0), util::CheckError);
}

TEST(CommStats, ResetClearsEverything) {
  CommStats s(2);
  s.record_send(0, MsgTag::kSolve, 100);
  s.reset();
  EXPECT_EQ(s.total_messages(), 0u);
  EXPECT_EQ(s.total_bytes(), 0u);
  EXPECT_EQ(s.messages_from(0), 0u);
  EXPECT_EQ(s.logical_messages(), 0u);
}

TEST(CommStats, LogicalRecordsDefaultToOnePerMessage) {
  CommStats s(2);
  s.record_send(0, MsgTag::kSolve, 100);
  s.record_send(1, MsgTag::kResidual, 100, 3);  // a 3-tenant frame
  EXPECT_EQ(s.total_messages(), 2u);
  EXPECT_EQ(s.logical_messages(), 4u);
  EXPECT_EQ(s.logical_messages(MsgTag::kSolve), 1u);
  EXPECT_EQ(s.logical_messages(MsgTag::kResidual), 3u);
  // A physical message carries at least one record.
  EXPECT_THROW(s.record_send(0, MsgTag::kSolve, 100, 0), util::CheckError);
}

TEST(Runtime, StageIsEquivalentToPut) {
  // stage() is put() minus the copy: same delivery, same accounting, same
  // modeled time.
  Runtime a(2), b(2);
  const std::vector<double> data{1.0, 2.0, 3.0};
  a.put(0, 1, MsgTag::kSolve, data);
  auto out = b.stage(0, 1, MsgTag::kSolve, data.size());
  ASSERT_EQ(out.size(), data.size());
  std::copy(data.begin(), data.end(), out.begin());
  a.fence();
  b.fence();
  ASSERT_EQ(a.window(1).size(), 1u);
  ASSERT_EQ(b.window(1).size(), 1u);
  EXPECT_EQ(a.window(1)[0].payload, b.window(1)[0].payload);
  EXPECT_EQ(a.window(1)[0].tag, b.window(1)[0].tag);
  EXPECT_EQ(a.stats().total_messages(), b.stats().total_messages());
  EXPECT_EQ(a.stats().total_bytes(), b.stats().total_bytes());
  EXPECT_EQ(a.model_time_seconds(), b.model_time_seconds());
}

TEST(Runtime, StageCountsLogicalRecords) {
  Runtime rt(2);
  auto out = rt.stage(0, 1, MsgTag::kSolve, 4, /*logical_records=*/3);
  std::fill(out.begin(), out.end(), 0.0);
  rt.fence();
  EXPECT_EQ(rt.stats().total_messages(), 1u);
  EXPECT_EQ(rt.stats().logical_messages(), 3u);
}

TEST(Runtime, BufferPoolsRecycleSteadyStateTraffic) {
  // After one full cycle the staging buffer and the window buffer both
  // come from their pools: the exact allocations are reused.
  Runtime rt(2);
  auto s1 = rt.stage(0, 1, MsgTag::kSolve, 8);
  const double* stage_ptr = s1.data();
  std::fill(s1.begin(), s1.end(), 1.0);
  rt.fence();
  const double* window_ptr = rt.window(1)[0].payload.data();
  rt.consume(1);

  auto s2 = rt.stage(0, 1, MsgTag::kSolve, 8);
  EXPECT_EQ(s2.data(), stage_ptr);
  std::fill(s2.begin(), s2.end(), 2.0);
  rt.fence();
  ASSERT_EQ(rt.window(1).size(), 1u);
  EXPECT_EQ(rt.window(1)[0].payload.data(), window_ptr);
  EXPECT_EQ(rt.window(1)[0].payload, std::vector<double>(8, 2.0));
  rt.consume(1);
}

TEST(Runtime, WindowsStayCorrectAcrossBurstAndShrink) {
  // A delivery burst grows a window far beyond steady state; the next
  // small consume() swap-shrinks it (capacity > 4x the consumed size).
  // Observable behavior must be unchanged either side of the shrink.
  Runtime rt(2);
  for (int k = 0; k < 100; ++k) {
    rt.put(0, 1, MsgTag::kSolve, std::vector<double>{double(k)});
  }
  rt.fence();
  ASSERT_EQ(rt.window(1).size(), 100u);
  rt.consume(1);

  for (int round = 0; round < 3; ++round) {
    rt.put(0, 1, MsgTag::kSolve, std::vector<double>{1.0});
    rt.put(0, 1, MsgTag::kSolve, std::vector<double>{2.0});
    rt.fence();
    ASSERT_EQ(rt.window(1).size(), 2u);
    EXPECT_EQ(rt.window(1)[0].payload, std::vector<double>{1.0});
    EXPECT_EQ(rt.window(1)[1].payload, std::vector<double>{2.0});
    rt.consume(1);  // round 0 triggers the swap-shrink
  }
  EXPECT_TRUE(rt.window(1).empty());
}

}  // namespace
}  // namespace dsouth::simmpi
