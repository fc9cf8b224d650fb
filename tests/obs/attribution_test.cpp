// Unit tests for SLO-violation attribution: the classification cascade,
// blackout-window bookkeeping, the engine's cause-sum invariant, and the
// streaming quantile sketch behind the per-bucket latency distributions.
#include "src/obs/attribution.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/rng.hpp"
#include "src/models/zoo.hpp"
#include "src/obs/sketch.hpp"

namespace paldia::obs {
namespace {

using telemetry::ViolationCause;

/// A violating request (latency 300 ms vs any 200 ms SLO) with every
/// component small; tests bump one component to make it dominate.
LifecycleSample base_sample() {
  LifecycleSample sample;
  sample.request_id = 1;
  sample.model = 0;
  sample.node = 0;
  sample.arrival_ms = 1000.0;
  sample.submit_ms = 1010.0;   // 10 ms gateway
  sample.start_ms = 1025.0;    // 15 ms dispatch
  sample.end_ms = 1300.0;      // 275 ms execute
  sample.solo_ms = 260.0;
  sample.interference_ms = 10.0;
  sample.cold_ms = 5.0;
  return sample;
}

TEST(ClassifyViolation, RetryWinsOutright) {
  auto sample = base_sample();
  sample.retried = true;
  sample.blackout = true;  // even over a blackout overlap
  sample.cold_ms = 250.0;
  EXPECT_EQ(classify_violation(sample), ViolationCause::kFailureRetry);
}

TEST(ClassifyViolation, BlackoutWinsWhenWaitingDominates) {
  auto sample = base_sample();
  sample.blackout = true;
  sample.submit_ms = 1200.0;  // 200 ms gateway wait through the blackout
  sample.start_ms = 1210.0;
  EXPECT_EQ(classify_violation(sample), ViolationCause::kHardwareSwitch);
}

TEST(ClassifyViolation, BlackoutLosesToExecutionSideInflation) {
  auto sample = base_sample();
  sample.blackout = true;
  // gateway (10) + lane (0) < cold + interference: the slowdown was
  // execution-side, the blackout merely coincided.
  sample.cold_ms = 100.0;
  sample.interference_ms = 120.0;
  sample.solo_ms = 50.0;
  EXPECT_EQ(classify_violation(sample), ViolationCause::kMpsInterference);
}

TEST(ClassifyViolation, DominantComponentDecides) {
  {
    auto sample = base_sample();
    sample.cold_ms = 270.0;
    EXPECT_EQ(classify_violation(sample), ViolationCause::kColdStart);
  }
  {
    auto sample = base_sample();
    sample.interference_ms = 270.0;
    EXPECT_EQ(classify_violation(sample), ViolationCause::kMpsInterference);
  }
  {
    auto sample = base_sample();
    sample.submit_ms = 1280.0;  // gateway 280 ms
    sample.start_ms = 1285.0;
    EXPECT_EQ(classify_violation(sample), ViolationCause::kGatewayQueue);
  }
  {
    auto sample = base_sample();
    sample.start_ms = 1290.0;  // lane wait 280 ms after a 10 ms gateway
    EXPECT_EQ(classify_violation(sample), ViolationCause::kBatching);
  }
  {
    // Nothing bumped: solo execution (260 ms) is the largest share.
    EXPECT_EQ(classify_violation(base_sample()), ViolationCause::kExecution);
  }
}

TEST(BlackoutWindows, OpenCloseAndOverlap) {
  BlackoutWindows windows;
  EXPECT_FALSE(windows.overlaps(0.0, 1e12));

  windows.open(100.0);
  // Open window extends to +infinity.
  EXPECT_TRUE(windows.overlaps(500.0, 600.0));
  EXPECT_FALSE(windows.overlaps(0.0, 99.0));

  windows.close_all(200.0);
  EXPECT_TRUE(windows.overlaps(150.0, 160.0));
  EXPECT_TRUE(windows.overlaps(199.0, 300.0));  // straddles the close
  EXPECT_FALSE(windows.overlaps(201.0, 300.0));
  // Endpoint touching counts as overlap.
  EXPECT_TRUE(windows.overlaps(200.0, 300.0));
  EXPECT_TRUE(windows.overlaps(0.0, 100.0));
}

TEST(BlackoutWindows, CloseAllClosesEveryOpenWindow) {
  BlackoutWindows windows;
  windows.open(100.0);  // switch_begin
  windows.open(150.0);  // node_failure mid-switch
  windows.close_all(200.0);
  EXPECT_EQ(windows.count(), 2u);
  EXPECT_FALSE(windows.overlaps(201.0, 1e12));

  // A later window is independent of the closed ones.
  windows.open(500.0);
  EXPECT_TRUE(windows.overlaps(600.0, 601.0));
  EXPECT_FALSE(windows.overlaps(300.0, 400.0));
}

// Reference model for overlaps(): the pairwise scan over every window it
// replaced, on random time-ordered open/close/query sequences. Ties in time,
// empty windows, queries with begin > end, infinite and NaN bounds included.
TEST(BlackoutWindows, OverlapsMatchesLinearScanOnRandomSequences) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Window {
    TimeMs begin_ms;
    TimeMs end_ms;
  };
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    BlackoutWindows windows;
    std::vector<Window> reference;
    TimeMs now = 0.0;
    const int steps = static_cast<int>(rng.uniform_int(1, 300));
    for (int step = 0; step < steps; ++step) {
      // Same-instant events are common (a failure and a switch together).
      if (!rng.bernoulli(0.2)) now += rng.uniform(0.0, 50.0);
      const double op = rng.uniform();
      if (op < 0.25) {
        windows.open(now);
        reference.push_back({now, kTimeNever});
      } else if (op < 0.4) {
        windows.close_all(now);
        for (Window& window : reference) {
          if (window.end_ms == kTimeNever) window.end_ms = now;
        }
      } else {
        TimeMs begin = now + rng.uniform(-400.0, 100.0);
        TimeMs end = begin + rng.uniform(-20.0, 200.0);
        const double special = rng.uniform();
        if (!reference.empty() && special < 0.3) {
          // Touch a window edge exactly: overlap is inclusive at both ends.
          const Window& edge = reference[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(reference.size()) - 1))];
          if (special < 0.15) {
            end = edge.begin_ms;
          } else if (edge.end_ms != kTimeNever) {
            begin = edge.end_ms;
          }
        } else if (special < 0.32) {
          begin = std::numeric_limits<double>::quiet_NaN();
        } else if (special < 0.34) {
          end = std::numeric_limits<double>::quiet_NaN();
        } else if (special < 0.36) {
          begin = -kInf;
        } else if (special < 0.38) {
          end = kInf;
        }
        bool expected = false;
        for (const Window& window : reference) {
          if (begin <= window.end_ms && end >= window.begin_ms) expected = true;
        }
        ASSERT_EQ(windows.overlaps(begin, end), expected)
            << "seed " << seed << " step " << step << " [" << begin << ", " << end
            << "]";
        ++queries;
        hits += expected ? 1 : 0;
      }
      ASSERT_EQ(windows.count(), reference.size());
    }
  }
  // Both answers must be well represented for the comparison to mean much.
  EXPECT_GT(hits, queries / 10);
  EXPECT_LT(hits, queries - queries / 10);
}

TEST(AttributionEngine, CauseCountsSumToViolationTotal) {
  AttributionEngine engine(models::Zoo::instance());
  engine.on_switch_begin(5000.0);
  engine.on_switch_active(5500.0);
  engine.on_requeued(42);

  std::int64_t id = 100;  // clear of the retried id 42
  for (int i = 0; i < 50; ++i) {
    auto sample = base_sample();
    sample.request_id = id++;
    sample.model = i % 3;
    sample.node = i % 2;
    if (i % 4 == 0) sample.end_ms = sample.arrival_ms + 150.0;  // compliant
    if (i % 5 == 0) sample.cold_ms = 270.0;
    if (i % 7 == 0) sample.interference_ms = 280.0;
    engine.observe_request(sample);
  }
  // The retried request and one that waited through the blackout.
  auto retried = base_sample();
  retried.request_id = 42;
  engine.observe_request(retried);
  auto blackout = base_sample();
  blackout.request_id = id++;
  blackout.arrival_ms = 5100.0;
  blackout.submit_ms = 5400.0;
  blackout.start_ms = 5410.0;
  blackout.end_ms = 5450.0;
  blackout.solo_ms = 30.0;
  blackout.interference_ms = 5.0;
  blackout.cold_ms = 0.0;
  engine.observe_request(blackout);

  engine.record_unserved(/*count=*/3);

  std::uint64_t cause_sum = 0;
  for (const std::uint64_t n : engine.causes()) cause_sum += n;
  EXPECT_EQ(cause_sum, engine.violations());
  EXPECT_GT(engine.violations(), 0u);
  EXPECT_EQ(engine.causes()[static_cast<int>(ViolationCause::kFailureRetry)], 1u);
  EXPECT_EQ(engine.causes()[static_cast<int>(ViolationCause::kHardwareSwitch)], 1u);
  EXPECT_EQ(engine.causes()[static_cast<int>(ViolationCause::kUnserved)], 3u);
  // 50 + the retried and blackout requests completed; unserved ones count too.
  EXPECT_EQ(engine.completed(), 55u);
}

TEST(AttributionEngine, CompliantRequestsAreNotClassified) {
  AttributionEngine engine(models::Zoo::instance());
  auto sample = base_sample();
  sample.end_ms = sample.arrival_ms + 100.0;
  EXPECT_FALSE(engine.observe_request(sample).has_value());
  EXPECT_EQ(engine.completed(), 1u);
  EXPECT_EQ(engine.violations(), 0u);
}

TEST(QuantileSketch, SummaryMatchesDistribution) {
  QuantileSketch sketch;
  EXPECT_TRUE(sketch.empty());
  for (int i = 1; i <= 1000; ++i) sketch.insert(static_cast<double>(i) * 0.1);
  const SketchSummary summary = sketch.summary();
  EXPECT_EQ(summary.count, 1000u);
  EXPECT_NEAR(summary.mean_ms, 50.05, 0.5);
  EXPECT_NEAR(summary.p50_ms, 50.0, 1.0);
  EXPECT_NEAR(summary.p95_ms, 95.0, 1.0);
  EXPECT_NEAR(summary.p99_ms, 99.0, 1.0);
  EXPECT_NEAR(summary.max_ms, 100.0, 0.5);
  EXPECT_NEAR(sketch.fraction_at_or_below(50.0), 0.5, 0.01);
}

TEST(QuantileSketch, MergeIsOrderIndependent) {
  QuantileSketch a;
  QuantileSketch b;
  QuantileSketch ba;
  for (int i = 0; i < 500; ++i) {
    a.insert(10.0 + i * 0.3);
    b.insert(400.0 + i * 0.9);
  }
  ba.merge(b);
  ba.merge(a);
  QuantileSketch ab;
  ab.merge(a);
  ab.merge(b);
  const auto sab = ab.summary();
  const auto sba = ba.summary();
  EXPECT_EQ(sab.count, sba.count);
  EXPECT_DOUBLE_EQ(sab.p50_ms, sba.p50_ms);
  EXPECT_DOUBLE_EQ(sab.p99_ms, sba.p99_ms);
  EXPECT_DOUBLE_EQ(sab.mean_ms, sba.mean_ms);
}

}  // namespace
}  // namespace paldia::obs
