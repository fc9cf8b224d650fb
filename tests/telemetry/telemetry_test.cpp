#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/telemetry/cost_tracker.hpp"
#include "src/telemetry/latency_recorder.hpp"
#include "src/telemetry/metrics.hpp"
#include "src/telemetry/power_tracker.hpp"
#include "src/telemetry/slo_tracker.hpp"
#include "src/telemetry/util_tracker.hpp"

namespace paldia::telemetry {
namespace {

TEST(LatencyRecorder, RecordsBasicStats) {
  LatencyRecorder recorder;
  for (int i = 1; i <= 100; ++i) {
    recorder.record({static_cast<double>(i), 10.0, 0.5, 0.0});
  }
  EXPECT_EQ(recorder.count(), 100u);
  EXPECT_NEAR(recorder.mean_ms(), 50.5, 1.0);
  EXPECT_NEAR(recorder.p99_ms(), 99.0, 2.0);
}

TEST(LatencyRecorder, TailBreakdownAttributesComponents) {
  LatencyRecorder recorder;
  // 99% fast requests dominated by solo time; 1% slow ones dominated by
  // queueing — the P99 breakdown must be queue-heavy.
  for (int i = 0; i < 9'900; ++i) recorder.record({50.0, 45.0, 0.0, 0.0});
  for (int i = 0; i < 100; ++i) recorder.record({500.0, 45.0, 5.0, 0.0});
  const auto breakdown = recorder.breakdown_at(0.995);
  EXPECT_GT(breakdown.queue_ms, breakdown.solo_ms);
  EXPECT_GT(breakdown.samples, 0u);
  EXPECT_NEAR(breakdown.latency_ms, 500.0, 50.0);
}

TEST(LatencyRecorder, ReservoirBoundsMemory) {
  LatencyRecorder recorder(/*reservoir_capacity=*/1000);
  for (int i = 0; i < 100'000; ++i) {
    recorder.record({static_cast<double>(i % 200), 10.0, 0.0, 0.0});
  }
  EXPECT_EQ(recorder.count(), 100'000u);
  const auto breakdown = recorder.breakdown_at(0.5, 0.1);
  EXPECT_GT(breakdown.samples, 0u);
  EXPECT_LE(breakdown.samples, 1000u);
}

TEST(LatencyRecorder, CdfExport) {
  LatencyRecorder recorder;
  for (int i = 0; i < 1000; ++i) recorder.record({static_cast<double>(i), 0, 0, 0});
  const auto cdf = recorder.cdf();
  ASSERT_FALSE(cdf.empty());
  EXPECT_NEAR(cdf.back().second, 1.0, 1e-12);
}

// The recorder as it was with whole five-field records: the queue component
// is computed at record time, with the formula complete_request used, and
// stored. Same histogram, same reservoir draws, same band scan.
class FullRecordReference {
 public:
  FullRecordReference(std::size_t capacity, std::uint64_t seed)
      : capacity_(capacity), rng_(seed) {}

  void record(const RequestOutcome& outcome) {
    e2e_.add(outcome.latency_ms);
    ++seen_;
    const Record record{outcome.latency_ms, outcome.solo_ms,
                        std::max(0.0, outcome.latency_ms - outcome.solo_ms -
                                          outcome.interference_ms -
                                          outcome.cold_start_ms),
                        outcome.interference_ms, outcome.cold_start_ms};
    if (records_.size() < capacity_) {
      records_.push_back(record);
    } else {
      const auto slot = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(seen_) - 1));
      if (slot < capacity_) records_[slot] = record;
    }
  }

  TailBreakdown breakdown_at(double quantile, double half_band) const {
    const double lo = e2e_.quantile(std::clamp(quantile - half_band, 0.0, 1.0));
    const double hi = e2e_.quantile(std::clamp(quantile + half_band, 0.0, 1.0));
    double latency = 0, solo = 0, queue = 0, interference = 0, cold = 0;
    std::size_t hits = 0;
    for (const auto& record : records_) {
      if (record.latency < lo || record.latency > hi) continue;
      latency += record.latency;
      solo += record.solo;
      queue += record.queue;
      interference += record.interference;
      cold += record.cold;
      ++hits;
    }
    if (hits == 0) {
      const double target = e2e_.quantile(quantile);
      const Record* nearest = &records_.front();
      for (const auto& record : records_) {
        if (std::abs(record.latency - target) < std::abs(nearest->latency - target)) {
          nearest = &record;
        }
      }
      return TailBreakdown{nearest->latency, nearest->solo, nearest->queue,
                           nearest->interference, nearest->cold, 1};
    }
    const auto n = static_cast<double>(hits);
    return TailBreakdown{latency / n, solo / n, queue / n, interference / n,
                         cold / n, hits};
  }

 private:
  struct Record {
    double latency, solo, queue, interference, cold;
  };
  Histogram e2e_;
  std::vector<Record> records_;
  std::size_t capacity_;
  std::uint64_t seen_ = 0;
  Rng rng_;
};

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

void expect_same_breakdown(const TailBreakdown& got, const TailBreakdown& want,
                           const std::string& where) {
  EXPECT_EQ(bits(got.latency_ms), bits(want.latency_ms)) << where;
  EXPECT_EQ(bits(got.solo_ms), bits(want.solo_ms)) << where;
  EXPECT_EQ(bits(got.queue_ms), bits(want.queue_ms)) << where;
  EXPECT_EQ(bits(got.interference_ms), bits(want.interference_ms)) << where;
  EXPECT_EQ(bits(got.cold_start_ms), bits(want.cold_start_ms)) << where;
  EXPECT_EQ(got.samples, want.samples) << where;
}

// The 32-byte records derive the queue component when read; the breakdown
// must equal the one over stored five-field records bit for bit, below the
// reservoir's capacity (every record kept) and far past it (sampled).
TEST(LatencyRecorder, BreakdownMatchesFullRecordReference) {
  struct Case {
    std::size_t capacity;
    int records;
  };
  for (const Case c : {Case{200'000, 20'000}, Case{1'000, 100'000}}) {
    constexpr std::uint64_t kSeed = 0x5eed'1a7e;
    LatencyRecorder recorder(c.capacity, kSeed);
    FullRecordReference reference(c.capacity, kSeed);
    Rng rng(0xb7ea'4d0c + c.capacity);
    for (int i = 0; i < c.records; ++i) {
      RequestOutcome outcome;
      outcome.solo_ms = rng.uniform(5.0, 60.0);
      outcome.interference_ms = rng.bernoulli(0.3) ? rng.exponential(0.05) : 0.0;
      outcome.cold_start_ms = rng.bernoulli(0.01) ? rng.uniform(900.0, 1500.0) : 0.0;
      const double queue = rng.exponential(1.0 / 40.0);
      outcome.latency_ms = outcome.solo_ms + outcome.interference_ms +
                           outcome.cold_start_ms + queue;
      // Some requests finish faster than their components add up to; their
      // queue component clamps at zero.
      if (rng.bernoulli(0.05)) outcome.latency_ms = outcome.solo_ms * 0.9;
      recorder.record(outcome);
      reference.record(outcome);
    }
    ASSERT_EQ(recorder.count(), static_cast<std::uint64_t>(c.records));
    const std::string label = "capacity " + std::to_string(c.capacity);
    for (const double q : {0.5, 0.99, 0.995}) {
      const auto want = reference.breakdown_at(q, 0.005);
      ASSERT_GT(want.samples, 1u) << label << " q " << q;
      expect_same_breakdown(recorder.breakdown_at(q), want,
                            label + " q " + std::to_string(q));
    }
    // A band too narrow to hold a record takes the nearest-record fallback.
    const auto want = reference.breakdown_at(0.99, 0.0);
    ASSERT_EQ(want.samples, 1u) << label;
    expect_same_breakdown(recorder.breakdown_at(0.99, 0.0), want,
                          label + " nearest record");
  }
}

TEST(SloTracker, ComplianceCounting) {
  SloTracker tracker(200.0);
  tracker.record_completion(0.0, 100.0);   // met
  tracker.record_completion(0.0, 200.0);   // met (boundary)
  tracker.record_completion(0.0, 300.0);   // violated
  EXPECT_EQ(tracker.total(), 3u);
  EXPECT_EQ(tracker.compliant(), 2u);
  EXPECT_NEAR(tracker.compliance(), 2.0 / 3.0, 1e-12);
}

TEST(SloTracker, EmptyIsFullyCompliant) {
  SloTracker tracker(200.0);
  EXPECT_EQ(tracker.compliance(), 1.0);
}

TEST(SloTracker, GoodputSeries) {
  SloTracker tracker(200.0);
  // 10 arrivals in second 0; 8 served within SLO, 2 violated.
  for (int i = 0; i < 10; ++i) tracker.record_arrival(i * 100.0);
  for (int i = 0; i < 8; ++i) tracker.record_completion(i * 100.0, i * 100.0 + 150.0);
  for (int i = 8; i < 10; ++i) tracker.record_completion(i * 100.0, i * 100.0 + 500.0);
  EXPECT_NEAR(tracker.arrival_rps(0.0, 1000.0), 10.0, 1e-9);
  EXPECT_NEAR(tracker.goodput_rps(0.0, 1000.0), 8.0, 1e-9);
}

TEST(SloTracker, GoodputAttributedToArrivalSecond) {
  SloTracker tracker(200.0);
  tracker.record_arrival(950.0);
  tracker.record_completion(950.0, 1100.0);  // completes in the next second
  EXPECT_NEAR(tracker.goodput_rps(0.0, 1000.0), 1.0, 1e-9);
  EXPECT_NEAR(tracker.goodput_rps(1000.0, 2000.0), 0.0, 1e-9);
}

TEST(SloTracker, RatesOverEmptyOrInvertedWindowAreZero) {
  SloTracker tracker(200.0);
  EXPECT_EQ(tracker.goodput_rps(0.0, 5000.0), 0.0);  // nothing recorded
  EXPECT_EQ(tracker.arrival_rps(0.0, 5000.0), 0.0);

  tracker.record_arrival(100.0);
  tracker.record_completion(100.0, 150.0);
  EXPECT_EQ(tracker.goodput_rps(1000.0, 1000.0), 0.0);  // zero-width
  EXPECT_EQ(tracker.arrival_rps(2000.0, 1000.0), 0.0);  // inverted
}

TEST(SloTracker, RatesBeyondTheLastBucketAreZero) {
  SloTracker tracker(200.0);
  tracker.record_arrival(500.0);
  tracker.record_completion(500.0, 600.0);
  // A window entirely past the last populated bucket must not read out of
  // range, and the rate denominator uses the requested span.
  EXPECT_EQ(tracker.arrival_rps(10'000.0, 20'000.0), 0.0);
  EXPECT_EQ(tracker.goodput_rps(10'000.0, 20'000.0), 0.0);
  // A window that starts inside and extends past the data still averages
  // over the full span asked for.
  EXPECT_NEAR(tracker.arrival_rps(0.0, 10'000.0), 0.1, 1e-9);
}

TEST(SloTracker, CompletionsStraddlingBucketBoundaries) {
  SloTracker tracker(200.0);
  // Arrivals in three consecutive seconds; the [start, end) window is
  // half-open, so a query ending exactly at a boundary excludes that bucket.
  tracker.record_arrival(999.9);
  tracker.record_arrival(1000.0);
  tracker.record_arrival(1999.9);
  for (const double t : {999.9, 1000.0, 1999.9}) {
    tracker.record_completion(t, t + 100.0);
  }
  EXPECT_NEAR(tracker.arrival_rps(0.0, 1000.0), 1.0, 1e-9);
  EXPECT_NEAR(tracker.arrival_rps(1000.0, 2000.0), 2.0, 1e-9);
  EXPECT_NEAR(tracker.arrival_rps(0.0, 2000.0), 1.5, 1e-9);
  EXPECT_NEAR(tracker.goodput_rps(1000.0, 2000.0), 2.0, 1e-9);
  // Negative start clamps to bucket zero.
  EXPECT_NEAR(tracker.arrival_rps(-1000.0, 1000.0), 0.5, 1e-9);
}

TEST(SloTracker, ViolationCausesSumMatchesClassifiedCount) {
  SloTracker tracker(200.0);
  tracker.record_completion(0.0, 500.0);
  tracker.record_completion(0.0, 600.0);
  tracker.record_violation_cause(ViolationCause::kColdStart);
  tracker.record_violation_cause(ViolationCause::kMpsInterference);
  EXPECT_EQ(tracker.violations(), 2u);
  EXPECT_EQ(tracker.classified_violations(), 2u);
  EXPECT_EQ(tracker.violation_causes()[static_cast<int>(ViolationCause::kColdStart)],
            1u);
}

TEST(CostTracker, ReflectsClusterHoldings) {
  sim::Simulator simulator;
  cluster::Cluster cluster(simulator, Rng(1));
  CostTracker tracker(cluster);
  EXPECT_EQ(tracker.total(), 0.0);
  cluster.acquire_immediately(hw::NodeType::kG3s_xlarge);
  simulator.run_until(hours(2));
  EXPECT_NEAR(tracker.total(), 1.5, 1e-9);
  const auto breakdown = tracker.breakdown();
  ASSERT_EQ(breakdown.size(), 1u);
  EXPECT_EQ(breakdown[0].type, hw::NodeType::kG3s_xlarge);
  EXPECT_NEAR(breakdown[0].cost, 1.5, 1e-9);
}

TEST(PowerTracker, IdleHeldNodeDrawsIdlePower) {
  sim::Simulator simulator;
  cluster::Cluster cluster(simulator, Rng(2));
  cluster.acquire_immediately(hw::NodeType::kG3s_xlarge);
  PowerTracker tracker(simulator, cluster, 1000.0);
  tracker.arm(seconds(30));
  simulator.run_until(seconds(30));
  const hw::PowerModel model(cluster.catalog().spec(hw::NodeType::kG3s_xlarge));
  EXPECT_NEAR(tracker.average_power(), model.idle_power(), 2.0);
}

TEST(PowerTracker, UnheldNodesDoNotCount) {
  sim::Simulator simulator;
  cluster::Cluster cluster(simulator, Rng(3));
  PowerTracker tracker(simulator, cluster, 1000.0);
  tracker.arm(seconds(10));
  simulator.run_until(seconds(10));
  EXPECT_EQ(tracker.average_power(), 0.0);
}

TEST(UtilTracker, BusyNodeShowsUtilization) {
  sim::Simulator simulator;
  cluster::Cluster cluster(simulator, Rng(4));
  cluster.acquire_immediately(hw::NodeType::kG3s_xlarge);
  auto& node = cluster.node(hw::NodeType::kG3s_xlarge);
  node.spawn_container(models::ModelId::kResNet50, true);

  UtilTracker tracker(simulator, cluster, 100.0);
  tracker.arm(seconds(20));
  // Keep the GPU busy for the first 10 of 20 seconds.
  for (int i = 0; i < 100; ++i) {
    simulator.schedule_at(i * 100.0, [&node] {
      cluster::ExecRequest request;
      request.model = models::ModelId::kResNet50;
      request.batch_size = 32;
      request.mode = cluster::ShareMode::kTemporal;
      request.on_complete = [](const cluster::ExecutionReport&) {};
      node.execute(std::move(request));
    });
  }
  simulator.run_until(seconds(20));
  EXPECT_NEAR(tracker.utilization(hw::NodeType::kG3s_xlarge), 0.5, 0.2);
  EXPECT_NEAR(tracker.gpu_utilization(),
              tracker.utilization(hw::NodeType::kG3s_xlarge), 1e-9);
  EXPECT_EQ(tracker.cpu_utilization(), 0.0);  // no CPU node held
}

TEST(RunMetrics, SummaryFormats) {
  RunMetrics metrics;
  metrics.scheme = "Paldia";
  metrics.slo_compliance = 0.995;
  metrics.p99_latency_ms = 180.0;
  const std::string summary = metrics.summary();
  EXPECT_NE(summary.find("Paldia"), std::string::npos);
  EXPECT_NE(summary.find("99.50%"), std::string::npos);
}

}  // namespace
}  // namespace paldia::telemetry
