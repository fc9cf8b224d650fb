// Deterministic SLO-aware trace sampling (obs/sampler.hpp + the Tracer's
// lifecycle gate): violators always retained, compliant lifecycles kept
// 1-in-N on a pure request-id hash, exact drop accounting via the
// "sampled_out:<model>:<node>" counter registry.
#include "src/obs/sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/models/zoo.hpp"
#include "src/obs/tracer.hpp"

namespace paldia::obs {
namespace {

TEST(TraceSampler, PassThroughAtRateOne) {
  const TraceSampler sampler(1);
  EXPECT_TRUE(sampler.pass_through());
  for (std::int64_t id = 0; id < 100; ++id) {
    EXPECT_TRUE(sampler.keep(id, /*violated=*/false));
  }
}

TEST(TraceSampler, ViolatorsAlwaysKept) {
  const TraceSampler sampler(1024);  // aggressive rate: compliant rarely kept
  for (std::int64_t id = 0; id < 1000; ++id) {
    EXPECT_TRUE(sampler.keep(id, /*violated=*/true));
  }
}

TEST(TraceSampler, DecisionIsPureFunctionOfId) {
  // Same id, same seed -> same answer, in any order, any number of times.
  const TraceSampler a(8);
  const TraceSampler b(8);
  std::vector<bool> forward;
  for (std::int64_t id = 0; id < 4096; ++id) {
    forward.push_back(a.keep_compliant(id));
  }
  for (std::int64_t id = 4095; id >= 0; --id) {
    EXPECT_EQ(forward[static_cast<std::size_t>(id)], b.keep_compliant(id)) << id;
  }
}

TEST(TraceSampler, SeedChangesTheKeptSet) {
  const TraceSampler a(8);
  const TraceSampler b(8, /*seed=*/0x1234);
  int differing = 0;
  for (std::int64_t id = 0; id < 4096; ++id) {
    differing += a.keep_compliant(id) != b.keep_compliant(id) ? 1 : 0;
  }
  EXPECT_GT(differing, 0);
}

TEST(TraceSampler, CompliantKeepRateApproximatesOneInN) {
  // Binomial bound: for n = 65536 draws at p = 1/rate, the observed rate
  // must land within 5 sigma of p (spurious-failure odds ~ 1e-6).
  for (const std::uint32_t rate : {2u, 8u, 64u}) {
    const TraceSampler sampler(rate);
    const int n = 65536;
    int kept = 0;
    for (std::int64_t id = 0; id < n; ++id) {
      kept += sampler.keep_compliant(id) ? 1 : 0;
    }
    const double p = 1.0 / rate;
    const double sigma = std::sqrt(p * (1.0 - p) * n);
    EXPECT_NEAR(kept, n * p, 5.0 * sigma) << "rate " << rate;
  }
}

// --- Tracer integration ------------------------------------------------------

constexpr auto kModel = models::ModelId::kResNet50;
constexpr auto kNode = hw::NodeType::kG3s_xlarge;

Tracer make_sampling_tracer(std::uint32_t rate) {
  TracerConfig config;
  config.sample_rate = rate;
  return Tracer(config);
}

void record_one(Tracer& tracer, std::int64_t id, DurationMs latency_ms) {
  tracer.record_request_lifecycle(id, kModel, kNode, cluster::ShareMode::kSpatial,
                                  /*batch_size=*/1, /*spatial=*/50, /*temporal=*/1,
                                  /*arrival_ms=*/1000.0, 1001.0, 1002.0,
                                  1000.0 + latency_ms, latency_ms - 2.0, 0.0, 0.0);
}

TEST(TracerSampling, DropsAreTalliedExactly) {
  Tracer tracer = make_sampling_tracer(8);
  std::array<DurationMs, models::kModelCount> slos{};
  slos.fill(100.0);
  tracer.set_model_slos(slos);

  const int n = 1000;
  for (std::int64_t id = 0; id < n; ++id) {
    record_one(tracer, id, /*latency_ms=*/50.0);  // all compliant
  }
  const auto kept = tracer.events().size();  // one event per lifecycle
  EXPECT_EQ(kept + tracer.sampled_out_total(), static_cast<std::size_t>(n));
  EXPECT_GT(tracer.sampled_out_total(), 0u);
  EXPECT_EQ(tracer.dropped_events(), 0u);  // sampling is not truncation

  tracer.sample_counters(2000.0);
  const std::string key = std::string("sampled_out:") +
                          std::string(models::model_id_name(kModel)) + ":" +
                          std::string(hw::node_type_name(kNode));
  EXPECT_EQ(tracer.counter_value(key),
            static_cast<double>(tracer.sampled_out_total()));
}

TEST(TracerSampling, ViolatorsBypassSampling) {
  Tracer tracer = make_sampling_tracer(1'000'000);  // drop ~everything compliant
  std::array<DurationMs, models::kModelCount> slos{};
  slos.fill(100.0);
  tracer.set_model_slos(slos);

  for (std::int64_t id = 0; id < 500; ++id) {
    record_one(tracer, id, /*latency_ms=*/250.0);  // all violating
  }
  EXPECT_EQ(tracer.events().size(), 500u);
  EXPECT_EQ(tracer.dropped_events(), 0u);
  EXPECT_EQ(tracer.sampled_out_total(), 0u);
}

TEST(TracerSampling, DefaultSlosTreatNothingAsViolating) {
  // Until set_model_slos installs real deadlines every request counts as
  // compliant (kTimeNever), so plain 1-in-N sampling applies.
  Tracer tracer = make_sampling_tracer(1'000'000);
  for (std::int64_t id = 0; id < 500; ++id) {
    record_one(tracer, id, /*latency_ms=*/250.0);
  }
  EXPECT_LT(tracer.events().size(), 5u);
}

TEST(TracerCounters, SampleCountersEmitsSortedKeyOrder) {
  // Regression: the counter registry must iterate in sorted-key order (it
  // is a std::map) so counter samples land in the trace in a deterministic
  // sequence regardless of registration order.
  Tracer tracer;
  tracer.count("zebra_counter");
  tracer.count("alpha_counter");
  tracer.count("unserved:ResNet 50", 3.0);
  tracer.count("mid_counter");
  tracer.sample_counters(10.0);

  std::vector<std::string> names;
  for (const TraceEvent& event : tracer.events()) {
    if (event.type == TraceEvent::Type::kCounter) names.emplace_back(event.name);
  }
  const std::vector<std::string> expected = {
      "alpha_counter", "mid_counter", "unserved:ResNet 50", "zebra_counter"};
  EXPECT_EQ(names, expected);
}

TEST(TracerCounters, SampledOutCountersAreCumulativeAcrossSamples) {
  // flush_sampled_out_counters assigns (not adds) the running totals, so
  // sampling the registry twice must not double the exported counts.
  Tracer tracer = make_sampling_tracer(1'000'000);
  for (std::int64_t id = 0; id < 200; ++id) {
    record_one(tracer, id, /*latency_ms=*/50.0);
  }
  const std::string key = std::string("sampled_out:") +
                          std::string(models::model_id_name(kModel)) + ":" +
                          std::string(hw::node_type_name(kNode));
  tracer.sample_counters(1.0);
  const double first = tracer.counter_value(key);
  tracer.sample_counters(2.0);
  EXPECT_EQ(tracer.counter_value(key), first);
  EXPECT_EQ(first, static_cast<double>(tracer.sampled_out_total()));
}

}  // namespace
}  // namespace paldia::obs
