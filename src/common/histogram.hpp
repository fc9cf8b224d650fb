// Streaming latency histogram with bounded memory.
//
// Latency percentiles over tens of millions of simulated requests must not
// require storing every sample. We use a log-linear bucketed histogram
// (HDR-histogram style): linear 0.25 ms buckets up to 512 ms, then
// exponentially growing buckets up to ~5 minutes. Relative quantile error is
// < 0.5 ms in the region that matters for a 200 ms SLO.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/units.hpp"

namespace paldia {

class Histogram {
 public:
  Histogram();

  void add(double value_ms, std::uint64_t count = 1);
  void merge(const Histogram& other);
  void clear();

  std::uint64_t count() const { return total_count_; }
  double sum() const { return sum_; }
  double mean() const;
  double min() const;
  double max() const;

  /// Quantile in [0, 1]; returns the representative value of the bucket
  /// containing the q-th sample. quantile(0.99) == P99.
  double quantile(double q) const;

  /// Several quantiles in one bucket scan (quantile() walks the bucket
  /// array per call). Results are bit-identical to calling quantile() on
  /// each probability and come back in the given order. Both walks skip
  /// every 64-bucket block that cannot hold their target.
  std::vector<double> quantiles(std::span<const double> qs) const;

  /// Fraction of samples <= threshold (e.g. SLO compliance).
  double fraction_at_or_below(double threshold_ms) const;

  /// (value, cumulative fraction) pairs for CDF export; one point per
  /// non-empty bucket.
  std::vector<std::pair<double, double>> cdf() const;

  /// Sparse serialization: (representative value, count) per non-empty
  /// bucket. Each representative maps back into its own bucket, so feeding
  /// the pairs through add() reconstructs the bucket counts exactly (mean /
  /// min / max become representative-based approximations).
  std::vector<std::pair<double, std::uint64_t>> nonzero_buckets() const;

  static constexpr double kLinearLimitMs = 512.0;
  static constexpr double kLinearBucketMs = 0.25;
  static constexpr double kMaxTrackableMs = 300'000.0;

 private:
  static constexpr std::size_t kBlockBuckets = 64;

  std::size_t bucket_index(double value_ms) const;
  double bucket_value(std::size_t index) const;
  double bucket_upper(std::size_t index) const;
  /// Advance `bucket` to the first non-empty bucket whose cumulative count
  /// reaches `target` (buckets_.size() if none does); `seen` counts the
  /// samples in the buckets before `bucket`.
  void walk_to(std::uint64_t target, std::size_t& bucket, std::uint64_t& seen) const;

  std::vector<std::uint64_t> buckets_;
  /// Sample count of each run of kBlockBuckets buckets (the last run may be
  /// shorter), so quantile walks and clear() pass over empty regions.
  std::vector<std::uint64_t> blocks_;
  std::uint64_t total_count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace paldia
