#include "dist/driver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsouth::dist {
namespace {

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

TEST(Driver, SeriesAreWellFormed) {
  auto p = make_problem(8, 4, 1);
  DistRunOptions opt;
  opt.max_parallel_steps = 10;
  auto r = run_distributed(DistMethod::kDistributedSouthwell, p.a, p.part,
                           p.b, p.x0, opt);
  EXPECT_EQ(r.method, "DistributedSouthwell");
  EXPECT_EQ(r.num_ranks, 4);
  EXPECT_EQ(r.n, 64);
  EXPECT_EQ(r.steps_taken(), 10u);
  ASSERT_EQ(r.residual_norm.size(), 11u);
  ASSERT_EQ(r.model_time.size(), 11u);
  ASSERT_EQ(r.comm_cost.size(), 11u);
  ASSERT_EQ(r.relaxations.size(), 11u);
  EXPECT_NEAR(r.residual_norm[0], 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(r.model_time[0], 0.0);
  // Cumulative series are non-decreasing.
  for (std::size_t k = 1; k < r.model_time.size(); ++k) {
    EXPECT_GE(r.model_time[k], r.model_time[k - 1]);
    EXPECT_GE(r.comm_cost[k], r.comm_cost[k - 1]);
    EXPECT_GE(r.relaxations[k], r.relaxations[k - 1]);
  }
  // Tag costs decompose the total.
  EXPECT_NEAR(r.comm_cost.back(), r.solve_comm.back() + r.res_comm.back(),
              1e-12);
}

TEST(Driver, StopAtResidualCutsRunShort) {
  auto p = make_problem(8, 4, 2);
  DistRunOptions opt;
  opt.max_parallel_steps = 10000;
  opt.stop_at_residual = 0.1;
  auto r = run_distributed(DistMethod::kBlockJacobi, p.a, p.part, p.b, p.x0,
                           opt);
  EXPECT_LE(r.residual_norm.back(), 0.1);
  EXPECT_LT(r.steps_taken(), 10000u);
}

TEST(Driver, AtTargetInterpolatesBetweenSteps) {
  auto p = make_problem(10, 5, 3);
  DistRunOptions opt;
  opt.max_parallel_steps = 300;
  auto r = run_distributed(DistMethod::kBlockJacobi, p.a, p.part, p.b, p.x0,
                           opt);
  auto at = r.at_target(0.1);
  ASSERT_TRUE(at.has_value());
  EXPECT_GT(at->steps, 0.0);
  EXPECT_LE(at->steps, static_cast<double>(r.steps_taken()));
  EXPECT_GT(at->model_time, 0.0);
  EXPECT_LE(at->model_time, r.model_time.back());
  EXPECT_GT(at->comm_cost, 0.0);
  EXPECT_GT(at->relaxations_per_n, 0.0);
  EXPECT_GT(at->active_fraction, 0.0);
  EXPECT_LE(at->active_fraction, 1.0);
  // BJ relaxes everything every step: relaxations/n == steps, active = 1.
  EXPECT_NEAR(at->relaxations_per_n, at->steps, 1e-9);
  EXPECT_NEAR(at->active_fraction, 1.0, 1e-12);
}

TEST(Driver, AtTargetReturnsNulloptWhenUnreached) {
  auto p = make_problem(8, 4, 4);
  DistRunOptions opt;
  opt.max_parallel_steps = 1;
  auto r = run_distributed(DistMethod::kDistributedSouthwell, p.a, p.part,
                           p.b, p.x0, opt);
  EXPECT_FALSE(r.at_target(1e-9).has_value());
}

TEST(Driver, DivergenceAbortStopsEarly) {
  // Force divergence artificially with an indefinite iteration: use the
  // elasticity-free route — BJ on Poisson converges, so instead abort on a
  // tiny threshold that any step exceeds... use threshold below initial
  // residual to trigger at step 1.
  auto p = make_problem(8, 4, 5);
  DistRunOptions opt;
  opt.max_parallel_steps = 100;
  opt.divergence_abort = 1e-6;  // any recorded norm >= this aborts
  auto r = run_distributed(DistMethod::kBlockJacobi, p.a, p.part, p.b, p.x0,
                           opt);
  EXPECT_EQ(r.steps_taken(), 1u);
}

TEST(Driver, MeanHelpers) {
  auto p = make_problem(8, 4, 6);
  DistRunOptions opt;
  opt.max_parallel_steps = 5;
  auto r = run_distributed(DistMethod::kBlockJacobi, p.a, p.part, p.b, p.x0,
                           opt);
  EXPECT_NEAR(r.mean_step_time() * 5.0, r.model_time.back(), 1e-15);
  EXPECT_NEAR(r.mean_step_comm() * 5.0, r.comm_cost.back(), 1e-15);
  EXPECT_DOUBLE_EQ(r.mean_active_fraction(), 1.0);
}

TEST(Driver, MethodNames) {
  EXPECT_STREQ(method_name(DistMethod::kBlockJacobi), "BlockJacobi");
  EXPECT_STREQ(method_abbrev(DistMethod::kBlockJacobi), "BJ");
  EXPECT_STREQ(method_abbrev(DistMethod::kParallelSouthwell), "PS");
  EXPECT_STREQ(method_abbrev(DistMethod::kDistributedSouthwell), "DS");
}

TEST(Driver, MachineModelScalesModelTime) {
  auto p = make_problem(8, 4, 7);
  DistRunOptions slow;
  slow.max_parallel_steps = 5;
  slow.machine.alpha = 1.0;
  DistRunOptions fast = slow;
  fast.machine.alpha = 1e-9;
  auto r_slow = run_distributed(DistMethod::kBlockJacobi, p.a, p.part, p.b,
                                p.x0, slow);
  auto r_fast = run_distributed(DistMethod::kBlockJacobi, p.a, p.part, p.b,
                                p.x0, fast);
  EXPECT_GT(r_slow.model_time.back(), r_fast.model_time.back());
}

// DS options that would silently do nothing (or mean "off" by accident)
// are refused where every run builds its solver, naming the options.
TEST(DistOptions, DsRejectsCombinationsThatDoNothing) {
  auto p = make_problem(8, 4, 8);
  // The message a 2-step DS run is refused with (the part after the
  // failed condition's text), or "" when it runs.
  const auto refusal = [&p](const DistRunOptions& opt) -> std::string {
    DistRunOptions o = opt;
    o.max_parallel_steps = 2;
    try {
      run_distributed(DistMethod::kDistributedSouthwell, p.a, p.part, p.b,
                      p.x0, o);
    } catch (const util::CheckError& e) {
      const std::string what = e.what();
      const auto dash = what.find(" — ");
      return dash == std::string::npos ? "(no message)" : what.substr(dash);
    }
    return "";
  };
  const auto names = [](const std::string& what, const char* option) {
    return what.find(option) != std::string::npos;
  };

  DistRunOptions heartbeat;
  heartbeat.ds.heartbeat_period = 4;
  EXPECT_EQ(refusal(heartbeat), "");
  heartbeat.ds.enable_corrections = false;
  const std::string no_corrections = refusal(heartbeat);
  EXPECT_TRUE(names(no_corrections, "heartbeat_period")) << no_corrections;
  EXPECT_TRUE(names(no_corrections, "enable_corrections")) << no_corrections;

  DistRunOptions negative;
  negative.ds.heartbeat_period = -1;
  EXPECT_TRUE(names(refusal(negative), "heartbeat_period"));
  for (const double bad : {-0.5, std::nan("")}) {
    DistRunOptions threshold;
    threshold.ds.send_threshold = bad;
    EXPECT_TRUE(names(refusal(threshold), "send_threshold")) << bad;
  }

  DistRunOptions deferred;
  deferred.ds.send_threshold = 0.5;
  EXPECT_EQ(refusal(deferred), "");
  DistRunOptions resilient = deferred;
  resilient.resilience.enabled = true;
  const std::string with_resilience = refusal(resilient);
  EXPECT_TRUE(names(with_resilience, "send_threshold")) << with_resilience;
  EXPECT_TRUE(names(with_resilience, "resilience")) << with_resilience;
  // Async turns resilience on by itself; the message says which option
  // the caller set.
  DistRunOptions async = deferred;
  async.async = true;
  const std::string with_async = refusal(async);
  EXPECT_TRUE(names(with_async, "send_threshold")) << with_async;
  EXPECT_TRUE(names(with_async, "async")) << with_async;
}

}  // namespace
}  // namespace dsouth::dist
