#include "src/predictor/ewma.hpp"

#include <gtest/gtest.h>

namespace paldia::predictor {
namespace {

TEST(Ewma, FirstObservationPrimesLevel) {
  EwmaPredictor predictor;
  predictor.observe(0.0, 40.0);
  EXPECT_DOUBLE_EQ(predictor.level(), 40.0);
  EXPECT_DOUBLE_EQ(predictor.predict(0.0, 1000.0), 40.0);
}

TEST(Ewma, ConvergesToConstantRate) {
  EwmaPredictor predictor(0.4, 0.2);
  for (int i = 0; i < 50; ++i) predictor.observe(i * 1000.0, 100.0);
  EXPECT_NEAR(predictor.level(), 100.0, 1e-6);
  EXPECT_NEAR(predictor.predict(50'000.0, 4000.0), 100.0, 1.0);
}

TEST(Ewma, SmoothsNoise) {
  EwmaPredictor predictor(0.3, 0.0);
  for (int i = 0; i < 100; ++i) {
    predictor.observe(i * 1000.0, i % 2 == 0 ? 80.0 : 120.0);
  }
  EXPECT_NEAR(predictor.level(), 100.0, 12.0);
}

TEST(Ewma, TrendExtrapolatesRamps) {
  EwmaPredictor predictor(0.5, 0.35);
  // Ramp 10 rps per second.
  for (int i = 0; i <= 20; ++i) predictor.observe(i * 1000.0, 10.0 * i);
  const double now = 20'000.0;
  const double horizon = 4000.0;
  const double no_trend = predictor.level();
  const double with_trend = predictor.predict(now, horizon);
  EXPECT_GT(with_trend, no_trend + 10.0);  // anticipates the climb
  // But bounded: not wildly above the true future value (240 at +4 s).
  EXPECT_LT(with_trend, 400.0);
}

TEST(Ewma, PredictionNeverNegative) {
  EwmaPredictor predictor(0.5, 0.35);
  for (int i = 0; i <= 10; ++i) predictor.observe(i * 1000.0, 100.0 - 10.0 * i);
  EXPECT_GE(predictor.predict(10'000.0, 60'000.0), 0.0);
}

TEST(Ewma, ZeroTrendAlphaIsClassicEwma) {
  EwmaPredictor predictor(0.5, 0.0);
  predictor.observe(0.0, 100.0);
  predictor.observe(1000.0, 0.0);
  EXPECT_NEAR(predictor.level(), 50.0, 1e-9);
  EXPECT_NEAR(predictor.predict(1000.0, 100'000.0), 50.0, 1e-9);
}

TEST(Ewma, IgnoresDuplicateAndOutOfOrderObservations) {
  // observe() is public: a caller can repeat a timestamp (same now) or hand
  // one in late (now < last). Both are stale, and either would make the
  // trend's dt non-positive, so the predictor state must not move.
  EwmaPredictor predictor(0.5, 0.35);
  predictor.observe(0.0, 100.0);
  predictor.observe(1000.0, 110.0);
  const double level = predictor.level();
  const double trend = predictor.trend_per_ms();
  predictor.observe(1000.0, 500.0);  // duplicate timestamp
  EXPECT_EQ(predictor.level(), level);
  EXPECT_EQ(predictor.trend_per_ms(), trend);
  predictor.observe(400.0, 999.0);  // out of order
  EXPECT_EQ(predictor.level(), level);
  EXPECT_EQ(predictor.trend_per_ms(), trend);
  // A genuinely newer observation still updates.
  predictor.observe(2000.0, 120.0);
  EXPECT_NE(predictor.level(), level);
}

TEST(Ewma, ClampsTrendTickForNearDuplicateTimestamps) {
  // dt is clamped to one tick, so two samples 0.25 ms apart produce the
  // same (finite, sane) trend as samples a full tick apart — the divide
  // can neither blow up nor flip sign.
  EwmaPredictor a(0.5, 0.35);
  a.observe(0.0, 100.0);
  a.observe(0.25, 200.0);
  EwmaPredictor b(0.5, 0.35);
  b.observe(0.0, 100.0);
  b.observe(1.0, 200.0);
  EXPECT_EQ(a.level(), b.level());
  EXPECT_EQ(a.trend_per_ms(), b.trend_per_ms());
  EXPECT_GT(a.trend_per_ms(), 0.0);
  EXPECT_LT(a.trend_per_ms(), 100.0);
}

TEST(Ewma, StaleObservationBeforePrimingStillPrimes) {
  // The -1 sentinel means the very first observation always primes, even
  // at t = 0.
  EwmaPredictor predictor;
  predictor.observe(0.0, 40.0);
  EXPECT_DOUBLE_EQ(predictor.level(), 40.0);
}

TEST(LastValue, ReturnsLastObservation) {
  LastValuePredictor predictor;
  predictor.observe(0.0, 5.0);
  predictor.observe(1.0, 9.0);
  EXPECT_EQ(predictor.predict(2.0, 1000.0), 9.0);
}

TEST(Predictor, PolymorphicUse) {
  EwmaPredictor ewma;
  Predictor& predictor = ewma;
  predictor.observe(0.0, 10.0);
  EXPECT_GT(predictor.predict(0.0, 1000.0), 0.0);
}

}  // namespace
}  // namespace paldia::predictor
