#include "src/perfmodel/tmax_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

namespace paldia::perfmodel {
namespace {

WorkloadPoint point(int n, int bs, double solo, double fbr, double slo = 200.0) {
  return WorkloadPoint{n, bs, solo, fbr, slo};
}

TEST(TmaxModel, PureTemporalIsDrainTime) {
  TmaxModel model(0.0);
  // y = N = 256, BS = 64, Solo = 100 -> 4 batches back to back.
  EXPECT_NEAR(model.t_max_ms(point(256, 64, 100.0, 0.5), 256), 400.0, 1e-9);
}

TEST(TmaxModel, PureSpatialUnsaturated) {
  TmaxModel model(0.0);
  // One batch worth of requests, FBR 0.5: S = 0.5 <= 1, no stretch.
  EXPECT_NEAR(model.t_max_ms(point(64, 64, 100.0, 0.5), 0), 100.0, 1e-9);
}

TEST(TmaxModel, LiteralEquationOneSaturated) {
  TmaxModel model(0.0);  // beta = 0: the paper's literal Eq. 1
  // N = 256, BS = 64, FBR = 0.5, y = 0: S = 2 -> Solo * 2.
  EXPECT_NEAR(model.t_max_ms(point(256, 64, 100.0, 0.5), 0), 200.0, 1e-9);
  // y = 64: queued 100 * 64/64 = 100; spatial S = 1.5 -> 150. Total 250.
  EXPECT_NEAR(model.t_max_ms(point(256, 64, 100.0, 0.5), 64), 250.0, 1e-9);
}

TEST(TmaxModel, LiteralFormIsMonotoneInYWithinOptimalRange) {
  // Documented property: with beta = 0 and FBR < 1, T_max increases with y
  // throughout the paper's optimal range, so all-spatial is always
  // "optimal" under the literal Eq. 1 — the reason the calibrated beta
  // term exists (see tmax_model.hpp). Beyond the range, the pure-temporal
  // endpoint drops the concurrent term and is discontinuous, so the sweep
  // stops at the range edge.
  TmaxModel model(0.0);
  const auto p = point(512, 64, 100.0, 0.5);
  const auto range = model.optimal_range(p);
  ASSERT_TRUE(range.has_value());
  double previous = -1.0;
  for (int y = range->first; y <= range->second; y += 16) {
    const double t = model.t_max_ms(p, y);
    EXPECT_GE(t, previous);
    previous = t;
  }
}

TEST(TmaxModel, CalibratedFormHasInteriorOptimum) {
  TmaxModel model(0.3);
  const auto p = point(1024, 64, 100.0, 0.6);
  const double all_spatial = model.t_max_ms(p, 0);
  const double all_temporal = model.t_max_ms(p, p.n_requests);
  double best = all_spatial;
  int best_y = 0;
  for (int y = 0; y <= p.n_requests; y += 16) {
    const double t = model.t_max_ms(p, y);
    if (t < best) {
      best = t;
      best_y = y;
    }
  }
  EXPECT_LT(best, all_spatial);
  EXPECT_LT(best, all_temporal);
  EXPECT_GT(best_y, 0);
  EXPECT_LT(best_y, p.n_requests);
}

TEST(TmaxModel, StretchFormula) {
  TmaxModel model(0.25);
  EXPECT_DOUBLE_EQ(model.stretch(0.3), 1.0);
  EXPECT_DOUBLE_EQ(model.stretch(1.0), 1.0);
  EXPECT_DOUBLE_EQ(model.stretch(2.0), 2.0 * (1.0 + 0.25));
}

TEST(TmaxModel, FbrSum) {
  TmaxModel model;
  const auto p = point(128, 64, 100.0, 0.5);
  EXPECT_DOUBLE_EQ(model.fbr_sum(p, 0), 1.0);
  EXPECT_DOUBLE_EQ(model.fbr_sum(p, 64), 0.5);
  EXPECT_DOUBLE_EQ(model.fbr_sum(p, 128), 0.0);
}

TEST(TmaxModel, OptimalRangeConstraints) {
  TmaxModel model;
  // Constraint (ii): y < N - BS/FBR. N = 256, BS = 64, FBR = 0.5 -> y < 128.
  const auto range = model.optimal_range(point(256, 64, 100.0, 0.5));
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->first, 0);
  EXPECT_EQ(range->second, 127);
}

TEST(TmaxModel, OptimalRangeEmptyWhenUnsaturatedEverywhere) {
  TmaxModel model;
  // N = 64, BS = 64, FBR = 0.5: even y = 0 gives S = 0.5 <= 1.
  EXPECT_FALSE(model.optimal_range(point(64, 64, 100.0, 0.5)).has_value());
}

TEST(TmaxModel, OptimalRangeRespectsYLessThanN) {
  TmaxModel model;
  // Tiny BS/FBR: the (ii) bound exceeds N; (i) must clamp to N - 1.
  const auto range = model.optimal_range(point(10, 1, 10.0, 0.9));
  ASSERT_TRUE(range.has_value());
  EXPECT_LE(range->second, 9);
}

TEST(TmaxModel, DegenerateInputs) {
  TmaxModel model;
  EXPECT_FALSE(model.optimal_range(point(0, 64, 100.0, 0.5)).has_value());
  EXPECT_FALSE(model.optimal_range(point(100, 64, 100.0, 0.0)).has_value());
  EXPECT_EQ(model.t_max_ms(point(0, 64, 100.0, 0.5), 0), 0.0);
}

TEST(TmaxModel, YClampedIntoValidRange) {
  TmaxModel model(0.0);
  const auto p = point(100, 64, 100.0, 0.5);
  EXPECT_DOUBLE_EQ(model.t_max_ms(p, -5), model.t_max_ms(p, 0));
  EXPECT_DOUBLE_EQ(model.t_max_ms(p, 1000), model.t_max_ms(p, 100));
}

// Property sweep: T_max(y) must always be >= the queued drain component and
// >= Solo, for any parameters.
class TmaxBounds
    : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(TmaxBounds, LowerBounds) {
  const auto [n, fbr, beta] = GetParam();
  TmaxModel model(beta);
  const auto p = point(n, 64, 80.0, fbr);
  for (int y = 0; y <= n; y += std::max(1, n / 17)) {
    const double t = model.t_max_ms(p, y);
    EXPECT_GE(t, p.solo_ms * y / p.batch_size - 1e-9);
    if (y < n) {
      EXPECT_GE(t, p.solo_ms - 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TmaxBounds,
    ::testing::Combine(::testing::Values(64, 256, 1024),
                       ::testing::Values(0.2, 0.5, 0.9),
                       ::testing::Values(0.0, 0.2, 0.4)));

// Work-conserving floor of Eq. 1: Solo * min(N / BS, max(1, (N / BS) * q))
// with q = max(FBR, compute). y = N drains N / BS batches back to back; for
// y < N the concurrent term is at least Solo * max(1, S) because
// stretch(S) >= S, so no split can beat the busiest resource's total demand.
double work_floor_ms(const WorkloadPoint& p) {
  if (p.n_requests <= 0) return 0.0;
  const double batches = static_cast<double>(p.n_requests) / p.batch_size;
  const double q = std::max(p.fbr, p.compute);
  return p.solo_ms * std::min(batches, std::max(1.0, batches * q));
}

// T_max(y) never drops below the work-conserving floor, for every y in
// [0, N], over the full parameter sweep — compute-bound points and nonzero
// beta included.
class TmaxLowerBound
    : public ::testing::TestWithParam<std::tuple<int, double, double, double>> {
};

TEST_P(TmaxLowerBound, BelowEveryY) {
  const auto [n, fbr, compute, beta] = GetParam();
  TmaxModel model(beta);
  for (int bs : {1, 16, 64}) {
    WorkloadPoint p{n, bs, 80.0, fbr, 200.0, compute};
    const double floor_ms = work_floor_ms(p);
    for (int y = 0; y <= n; y += std::max(1, n / 37)) {
      EXPECT_LE(floor_ms, model.t_max_ms(p, y) + 1e-9)
          << "n=" << n << " bs=" << bs << " fbr=" << fbr
          << " compute=" << compute << " beta=" << beta << " y=" << y;
    }
    EXPECT_LE(floor_ms, model.t_max_ms(p, n) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TmaxLowerBound,
    ::testing::Combine(::testing::Values(1, 7, 64, 256, 1024),
                       ::testing::Values(0.1, 0.5, 0.9, 1.4),
                       ::testing::Values(0.0, 0.3, 1.1),
                       ::testing::Values(0.0, 0.2, 0.4)));

}  // namespace
}  // namespace paldia::perfmodel
