#include "src/perfmodel/y_optimizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace paldia::perfmodel {
namespace {

TEST(YOptimizer, ZeroRequestsIsTriviallyFeasible) {
  YOptimizer optimizer(TmaxModel(0.2));
  const auto decision = optimizer.best_split({0, 64, 100.0, 0.5, 200.0});
  EXPECT_TRUE(decision.feasible);
  EXPECT_EQ(decision.y, 0);
  EXPECT_EQ(decision.t_max_ms, 0.0);
}

TEST(YOptimizer, LightLoadGoesAllSpatial) {
  YOptimizer optimizer(TmaxModel(0.2));
  // One batch, unsaturated: t_max = solo, y = 0.
  const auto decision = optimizer.best_split({64, 64, 100.0, 0.5, 200.0});
  EXPECT_EQ(decision.y, 0);
  EXPECT_NEAR(decision.t_max_ms, 100.0, 1e-9);
  EXPECT_TRUE(decision.feasible);
}

TEST(YOptimizer, MatchesExhaustiveSearch) {
  TmaxModel model(0.3);
  YOptimizer optimizer(model);
  const WorkloadPoint p{700, 64, 90.0, 0.6, 200.0};
  const auto decision = optimizer.best_split(p);

  double best = 1e18;
  for (int y = 0; y <= p.n_requests; ++y) {
    best = std::min(best, model.t_max_ms(p, y));
  }
  EXPECT_NEAR(decision.t_max_ms, best, best * 0.02);
}

TEST(YOptimizer, InfeasibleWhenNothingFits) {
  YOptimizer optimizer(TmaxModel(0.2));
  // Massive demand on a slow device: no split meets the SLO.
  const auto decision = optimizer.best_split({10'000, 64, 150.0, 0.9, 200.0});
  EXPECT_FALSE(decision.feasible);
  EXPECT_GT(decision.t_max_ms, 200.0);
}

TEST(YOptimizer, PrefersHybridUnderHeavySaturation) {
  YOptimizer optimizer(TmaxModel(0.3));
  const auto decision = optimizer.best_split({1500, 64, 60.0, 0.7, 1e9});
  EXPECT_GT(decision.y, 0);
  EXPECT_LT(decision.y, 1500);
}

TEST(YOptimizer, SameResultWithAndWithoutPool) {
  TmaxModel model(0.25);
  ThreadPool pool(4);
  YOptimizer serial(model, nullptr);
  YOptimizer parallel(model, &pool);
  const WorkloadPoint p{2000, 64, 70.0, 0.65, 200.0};
  const auto a = serial.best_split(p);
  const auto b = parallel.best_split(p);
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.t_max_ms, b.t_max_ms);
}

TEST(YOptimizer, NestedSweepInsidePoolTaskCompletes) {
  // The shape that used to deadlock: parallel repetitions run on the pool,
  // and each task re-enters the same pool for its policy's y-sweep.
  TmaxModel model(0.25);
  ThreadPool pool(4);
  YOptimizer optimizer(model, &pool);
  const WorkloadPoint p{8192, 64, 90.0, 0.65, 200.0};

  // The point must actually exercise a wide sweep (>= 64 candidate splits).
  const auto range = model.optimal_range(p);
  ASSERT_TRUE(range.has_value());
  ASSERT_GE(range->second - range->first + 1, 64);

  const auto serial = YOptimizer(model, nullptr).best_split(p);
  std::vector<SharingDecision> decisions(8);
  pool.parallel_for(decisions.size(),
                    [&](std::size_t i) { decisions[i] = optimizer.best_split(p); });
  for (const auto& decision : decisions) {
    EXPECT_EQ(decision.y, serial.y);
    EXPECT_EQ(decision.t_max_ms, serial.t_max_ms);
  }
}

TEST(YOptimizer, ProbeBudgetStillCoversRangeEnds) {
  // An optimal range of ~4,900 splits is strided down to the 256-probe
  // budget; the strided optimum may be slightly worse than the exhaustive
  // one but must stay within a few percent (the objective is piecewise
  // smooth in y), and both ends of the range are always probed.
  TmaxModel model(0.3);
  YOptimizer optimizer(model);
  const WorkloadPoint p{5000, 64, 60.0, 0.7, 1e9};
  const auto range = model.optimal_range(p);
  ASSERT_TRUE(range.has_value());
  ASSERT_GT(range->second - range->first + 1, 256);
  double exhaustive = model.t_max_ms(p, p.n_requests);
  for (int y = 0; y <= p.n_requests; ++y) {
    exhaustive = std::min(exhaustive, model.t_max_ms(p, y));
  }
  const auto strided = optimizer.best_split(p);
  EXPECT_LE(exhaustive, strided.t_max_ms + 1e-9);
  EXPECT_LT(strided.t_max_ms, exhaustive * 1.10);
  EXPECT_LE(strided.t_max_ms, model.t_max_ms(p, range->first) + 1e-9);
  EXPECT_LE(strided.t_max_ms, model.t_max_ms(p, range->second) + 1e-9);
}

TEST(YOptimizer, TieBreaksTowardLessQueueing) {
  // With FBR tiny, many y values give identical t_max = solo; pick y = 0.
  YOptimizer optimizer(TmaxModel(0.0));
  const auto decision = optimizer.best_split({64, 64, 100.0, 0.01, 1e9});
  EXPECT_EQ(decision.y, 0);
}

TEST(YOptimizer, FeasibilityThresholdExact) {
  YOptimizer optimizer(TmaxModel(0.0));
  // t_max = solo exactly equals SLO -> feasible (<=).
  const auto decision = optimizer.best_split({64, 64, 200.0, 0.5, 200.0});
  EXPECT_TRUE(decision.feasible);
}

// Parameterized consistency sweep: the chosen split is never worse than
// both pure strategies.
class SplitDominance
    : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(SplitDominance, BeatsOrMatchesPureStrategies) {
  const auto [n, fbr, beta] = GetParam();
  TmaxModel model(beta);
  YOptimizer optimizer(model);
  const WorkloadPoint p{n, 64, 80.0, fbr, 200.0};
  const auto decision = optimizer.best_split(p);
  EXPECT_LE(decision.t_max_ms, model.t_max_ms(p, 0) + 1e-9);
  EXPECT_LE(decision.t_max_ms, model.t_max_ms(p, n) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SplitDominance,
    ::testing::Combine(::testing::Values(32, 128, 512, 2048),
                       ::testing::Values(0.15, 0.4, 0.7, 0.95),
                       ::testing::Values(0.0, 0.2, 0.35)));

}  // namespace
}  // namespace paldia::perfmodel
