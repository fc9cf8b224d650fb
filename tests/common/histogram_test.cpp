#include "src/common/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/stats.hpp"

namespace paldia {
namespace {

constexpr std::array<double, 6> kProbes = {0.0, 1e-9, 0.5, 0.95, 0.99, 1.0};

/// The reference for quantile(): the bucket-by-bucket walk from before the
/// block totals — the first non-empty bucket whose cumulative count reaches
/// ceil(q * count), clamped into [min, max] — over the raw bucket counts.
double linear_quantile(const Histogram& h, double q) {
  if (h.count() == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(h.count())));
  std::uint64_t seen = 0;
  for (const auto& [value, count] : h.nonzero_buckets()) {
    seen += count;
    if (seen >= target) return std::clamp(value, h.min(), h.max());
  }
  return h.max();
}

/// Every probe through quantile() and quantiles() equals the linear walk.
void expect_linear_quantiles(const Histogram& h) {
  const std::vector<double> batched = h.quantiles(kProbes);
  for (std::size_t i = 0; i < kProbes.size(); ++i) {
    const double expected = linear_quantile(h, kProbes[i]);
    EXPECT_EQ(h.quantile(kProbes[i]), expected) << "q=" << kProbes[i];
    EXPECT_EQ(batched[i], expected) << "q=" << kProbes[i];
  }
}

TEST(Histogram, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.fraction_at_or_below(100.0), 1.0);
  EXPECT_TRUE(h.cdf().empty());
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.add(42.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_NEAR(h.quantile(0.5), 42.0, Histogram::kLinearBucketMs);
  EXPECT_NEAR(h.mean(), 42.0, 1e-9);
  EXPECT_EQ(h.min(), 42.0);
  EXPECT_EQ(h.max(), 42.0);
}

TEST(Histogram, BulkCount) {
  Histogram h;
  h.add(10.0, 1000);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.mean(), 10.0, 1e-9);
}

TEST(Histogram, QuantileAccuracyInLinearRegion) {
  Histogram h;
  Rng rng(1);
  std::vector<double> exact;
  for (int i = 0; i < 100'000; ++i) {
    const double v = rng.uniform(0.0, 400.0);
    h.add(v);
    exact.push_back(v);
  }
  // One sort of the sample, one scan of the histogram, all probes.
  const std::vector<double> qs = {0.5, 0.9, 0.99, 0.999};
  const auto truth = quantiles(exact, qs);
  const auto approx = h.quantiles(qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_NEAR(approx[i], truth[i], 1.0) << "quantile " << qs[i] << " drifted";
    EXPECT_EQ(approx[i], h.quantile(qs[i])) << "batched vs single mismatch";
  }
}

TEST(Histogram, QuantileRelativeErrorInExponentialRegion) {
  Histogram h;
  Rng rng(2);
  std::vector<double> exact;
  for (int i = 0; i < 100'000; ++i) {
    const double v = rng.uniform(1000.0, 100'000.0);
    h.add(v);
    exact.push_back(v);
  }
  const std::vector<double> qs = {0.5, 0.95, 0.99};
  const auto truth = quantiles(exact, qs);
  const auto approx = h.quantiles(qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_NEAR(approx[i], truth[i], truth[i] * 0.05);
    EXPECT_EQ(approx[i], h.quantile(qs[i])) << "batched vs single mismatch";
  }
}

TEST(Histogram, FractionAtOrBelowMatchesSloSemantics) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));  // 1..100 ms
  // 100 values; threshold at 50 ms should report ~50%.
  EXPECT_NEAR(h.fraction_at_or_below(50.0), 0.5, 0.02);
  EXPECT_NEAR(h.fraction_at_or_below(200.0), 1.0, 1e-9);
  EXPECT_NEAR(h.fraction_at_or_below(0.0), 0.0, 0.02);
}

TEST(Histogram, MergeEqualsCombinedStream) {
  Histogram a, b, combined;
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.lognormal(3.0, 1.0);
    combined.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  EXPECT_EQ(a.quantile(0.99), combined.quantile(0.99));
}

TEST(Histogram, ClearResets) {
  Histogram h;
  h.add(5.0, 10);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(Histogram, CdfIsMonotoneAndEndsAtOne) {
  Histogram h;
  Rng rng(4);
  for (int i = 0; i < 5'000; ++i) h.add(rng.lognormal(4.0, 0.7));
  const auto cdf = h.cdf();
  ASSERT_FALSE(cdf.empty());
  double last_value = -1.0, last_fraction = -1.0;
  for (const auto& [value, fraction] : cdf) {
    EXPECT_GT(value, last_value);
    EXPECT_GE(fraction, last_fraction);
    last_value = value;
    last_fraction = fraction;
  }
  EXPECT_NEAR(cdf.back().second, 1.0, 1e-12);
}

TEST(Histogram, NegativeValuesClampToZeroBucket) {
  Histogram h;
  h.add(-5.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_LE(h.quantile(1.0), Histogram::kLinearBucketMs);
}

TEST(Histogram, ValuesBeyondMaxTrackable) {
  Histogram h;
  h.add(1e9);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.quantile(1.0), Histogram::kMaxTrackableMs * 0.9);
}

TEST(Histogram, NonFiniteAndExtremeValuesLandInTheEdgeBuckets) {
  // +inf, NaN and values past the tracked range go to the last bucket, -inf
  // and negatives to bucket 0, without an out-of-range float-to-integer
  // cast (the asan preset's float-cast-overflow check aborts on one).
  const auto only_bucket = [](double value) {
    Histogram h;
    h.add(value);
    EXPECT_EQ(h.count(), 1u);
    const auto buckets = h.nonzero_buckets();
    EXPECT_EQ(buckets.size(), 1u) << value;
    return buckets.empty() ? -1.0 : buckets[0].first;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double last = only_bucket(1e9);
  EXPECT_GE(last, Histogram::kMaxTrackableMs * 0.9);
  EXPECT_EQ(only_bucket(kInf), last);
  EXPECT_EQ(only_bucket(std::numeric_limits<double>::quiet_NaN()), last);
  EXPECT_EQ(only_bucket(std::numeric_limits<double>::max()), last);
  const double first = only_bucket(0.0);
  EXPECT_LE(first, Histogram::kLinearBucketMs);
  EXPECT_EQ(only_bucket(-kInf), first);
  EXPECT_EQ(only_bucket(std::numeric_limits<double>::lowest()), first);
}

TEST(Histogram, QuantileClampedToObservedRange) {
  Histogram h;
  h.add(100.0);
  h.add(200.0);
  EXPECT_GE(h.quantile(0.0), 100.0 - Histogram::kLinearBucketMs);
  EXPECT_LE(h.quantile(1.0), 200.0 + Histogram::kLinearBucketMs);
}

TEST(Histogram, QuantilesMatchTheLinearWalkOnEdgeCases) {
  Histogram empty;
  expect_linear_quantiles(empty);
  EXPECT_EQ(empty.quantiles(kProbes), std::vector<double>(kProbes.size(), 0.0));

  Histogram single;
  single.add(7.3, 5);
  expect_linear_quantiles(single);

  // Every sample in the last, partial block of buckets (the exponential
  // region's top) and beyond the trackable range, which clamps into the
  // last bucket.
  Histogram tail;
  for (const double v : {150'000.0, 200'000.0, 299'999.0, 300'000.0, 1e6, 1e9}) {
    tail.add(v, 3);
    expect_linear_quantiles(tail);
  }

  // Negative samples land in bucket 0 and clamp to the observed range.
  Histogram negative;
  negative.add(-5.0, 2);
  expect_linear_quantiles(negative);
  negative.add(-0.5);
  negative.add(40.0);
  expect_linear_quantiles(negative);
}

TEST(Histogram, RandomAddMergeClearMatchesTheLinearWalk) {
  // Each histogram's samples since its last clear (value -> count), so a
  // fresh histogram fed the same samples shows what the buckets must hold.
  using Samples = std::map<double, std::uint64_t>;
  Rng rng(20240514);
  const auto draw_value = [&rng] {
    switch (rng.uniform_int(0, 4)) {
      case 0: return rng.uniform(0.0, 512.0);                   // linear region
      case 1: return rng.uniform(512.0, 300'000.0);             // exponential
      case 2: return rng.uniform(150'000.0, 400'000.0);         // last block, beyond
      case 3: return -rng.uniform(0.0, 10.0);                   // negative
      default: return std::floor(rng.uniform(0.0, 64.0)) * 16.0;  // block edges
    }
  };
  std::array<Histogram, 3> histograms;
  std::array<Samples, 3> samples;
  for (int step = 0; step < 3'000; ++step) {
    const auto h = static_cast<std::size_t>(rng.uniform_int(0, 2));
    const int op = rng.uniform_int(0, 19);
    if (op == 0) {
      histograms[h].clear();
      samples[h].clear();
    } else if (op == 1) {
      const auto other = static_cast<std::size_t>(rng.uniform_int(0, 2));
      if (other == h) continue;
      histograms[h].merge(histograms[other]);
      for (const auto& [value, count] : samples[other]) samples[h][value] += count;
    } else {
      const double value = draw_value();
      const auto count = static_cast<std::uint64_t>(rng.uniform_int(1, 4));
      histograms[h].add(value, count);
      samples[h][value] += count;
    }
    expect_linear_quantiles(histograms[h]);
    Histogram fresh;
    for (const auto& [value, count] : samples[h]) fresh.add(value, count);
    ASSERT_EQ(histograms[h].nonzero_buckets(), fresh.nonzero_buckets()) << "step " << step;
    ASSERT_EQ(histograms[h].count(), fresh.count());
    if (HasFailure()) break;
  }
}

}  // namespace
}  // namespace paldia
