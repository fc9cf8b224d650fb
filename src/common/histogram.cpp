#include "src/common/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace paldia {

namespace {
constexpr std::size_t kLinearBuckets =
    static_cast<std::size_t>(Histogram::kLinearLimitMs / Histogram::kLinearBucketMs);
// Exponential region: each bucket grows by 2^(1/16); covers 512ms..300s.
constexpr double kGrowth = 1.0442737824274138;  // 2^(1/16)
}  // namespace

Histogram::Histogram() {
  std::size_t exp_buckets = 0;
  double upper = kLinearLimitMs;
  while (upper < kMaxTrackableMs) {
    upper *= kGrowth;
    ++exp_buckets;
  }
  buckets_.assign(kLinearBuckets + exp_buckets + 1, 0);
  blocks_.assign((buckets_.size() + kBlockBuckets - 1) / kBlockBuckets, 0);
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

std::size_t Histogram::bucket_index(double value_ms) const {
  if (value_ms < 0.0) value_ms = 0.0;  // -inf too
  if (value_ms < kLinearLimitMs) {
    return static_cast<std::size_t>(value_ms / kLinearBucketMs);
  }
  const std::size_t last = buckets_.size() - 1;
  const double exp_index = std::log(value_ms / kLinearLimitMs) / std::log(kGrowth);
  // Past the last bucket, +inf and NaN all land in it; testing before the
  // cast keeps it in range (a double too large for size_t is undefined).
  if (!(exp_index < static_cast<double>(last - kLinearBuckets))) return last;
  return kLinearBuckets + static_cast<std::size_t>(exp_index);
}

double Histogram::bucket_upper(std::size_t index) const {
  if (index < kLinearBuckets) return (static_cast<double>(index) + 1.0) * kLinearBucketMs;
  const auto exp_index = static_cast<double>(index - kLinearBuckets);
  return kLinearLimitMs * std::pow(kGrowth, exp_index + 1.0);
}

double Histogram::bucket_value(std::size_t index) const {
  if (index < kLinearBuckets) {
    return (static_cast<double>(index) + 0.5) * kLinearBucketMs;
  }
  const auto exp_index = static_cast<double>(index - kLinearBuckets);
  const double lo = kLinearLimitMs * std::pow(kGrowth, exp_index);
  return lo * (1.0 + kGrowth) / 2.0;
}

void Histogram::add(double value_ms, std::uint64_t count) {
  if (count == 0) return;
  const std::size_t index = bucket_index(value_ms);
  buckets_[index] += count;
  blocks_[index / kBlockBuckets] += count;
  total_count_ += count;
  sum_ += value_ms * static_cast<double>(count);
  min_ = std::min(min_, value_ms);
  max_ = std::max(max_, value_ms);
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t block = 0; block < blocks_.size(); ++block) {
    if (other.blocks_[block] == 0) continue;
    blocks_[block] += other.blocks_[block];
    const std::size_t end = std::min(buckets_.size(), (block + 1) * kBlockBuckets);
    for (std::size_t i = block * kBlockBuckets; i < end; ++i) {
      buckets_[i] += other.buckets_[i];
    }
  }
  total_count_ += other.total_count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Histogram::clear() {
  for (std::size_t block = 0; block < blocks_.size(); ++block) {
    if (blocks_[block] == 0) continue;
    blocks_[block] = 0;
    const std::size_t end = std::min(buckets_.size(), (block + 1) * kBlockBuckets);
    for (std::size_t i = block * kBlockBuckets; i < end; ++i) buckets_[i] = 0;
  }
  total_count_ = 0;
  sum_ = 0.0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

double Histogram::mean() const {
  return total_count_ == 0 ? 0.0 : sum_ / static_cast<double>(total_count_);
}

double Histogram::min() const { return total_count_ == 0 ? 0.0 : min_; }
double Histogram::max() const { return total_count_ == 0 ? 0.0 : max_; }

void Histogram::walk_to(std::uint64_t target, std::size_t& bucket,
                        std::uint64_t& seen) const {
  while (bucket < buckets_.size()) {
    if (bucket % kBlockBuckets == 0) {
      // No bucket of a block stops the walk when the whole block is empty
      // or leaves the cumulative count short of the target.
      const std::uint64_t block = blocks_[bucket / kBlockBuckets];
      if (block == 0 || seen + block < target) {
        seen += block;
        bucket += kBlockBuckets;
        continue;
      }
    }
    if (buckets_[bucket] != 0 && seen + buckets_[bucket] >= target) return;
    seen += buckets_[bucket];
    ++bucket;
  }
}

double Histogram::quantile(double q) const {
  if (total_count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_count_)));
  std::size_t bucket = 0;
  std::uint64_t seen = 0;
  walk_to(target, bucket, seen);
  return bucket < buckets_.size() ? std::clamp(bucket_value(bucket), min_, max_)
                                  : max_;
}

std::vector<double> Histogram::quantiles(std::span<const double> qs) const {
  std::vector<double> out(qs.size(), 0.0);
  if (total_count_ == 0) return out;

  // Visit the probabilities in ascending order so one cumulative walk over
  // the buckets answers all of them; results land back in input order.
  std::vector<std::size_t> order(qs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return qs[a] < qs[b]; });

  std::uint64_t seen = 0;  // cumulative count of buckets before `bucket`
  std::size_t bucket = 0;
  for (const std::size_t qi : order) {
    const double q = std::clamp(qs[qi], 0.0, 1.0);
    const auto target =
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_count_)));
    // Same rule as quantile(): the first non-empty bucket whose cumulative
    // count (through itself) reaches the target. Targets ascend, so the
    // walk never rewinds and a bucket may answer several probabilities.
    walk_to(target, bucket, seen);
    out[qi] = bucket < buckets_.size() ? std::clamp(bucket_value(bucket), min_, max_)
                                       : max_;
  }
  return out;
}

double Histogram::fraction_at_or_below(double threshold_ms) const {
  if (total_count_ == 0) return 1.0;
  const std::size_t limit = bucket_index(threshold_ms);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i <= limit && i < buckets_.size(); ++i) below += buckets_[i];
  return static_cast<double>(below) / static_cast<double>(total_count_);
}

std::vector<std::pair<double, std::uint64_t>> Histogram::nonzero_buckets() const {
  std::vector<std::pair<double, std::uint64_t>> pairs;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] != 0) pairs.emplace_back(bucket_value(i), buckets_[i]);
  }
  return pairs;
}

std::vector<std::pair<double, double>> Histogram::cdf() const {
  std::vector<std::pair<double, double>> points;
  if (total_count_ == 0) return points;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    seen += buckets_[i];
    points.emplace_back(bucket_upper(i),
                        static_cast<double>(seen) / static_cast<double>(total_count_));
  }
  return points;
}

}  // namespace paldia
