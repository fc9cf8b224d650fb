// Per-request latency recording with component attribution.
//
// Each completed request carries an end-to-end latency plus a breakdown
// into: isolated execution ("min possible time" in Figs. 1/4), queueing
// (batch formation + lane/container waits), interference (execution stretch
// under MPS contention), and cold start. Full distributions go into
// bounded-memory histograms; a reservoir sample additionally retains whole
// records so the tail (P99) breakdown plots can be reconstructed.
//
// A record is 32 bytes: queueing is what the other components leave of the
// latency, so it is derived (RequestOutcome::queue_ms) rather than stored.
// The reservoir is allocated once at its capacity; a caller that knows how
// many requests can complete (Framework: the routed requests) passes that
// bound when it is below the default, so the recorder keeps every record
// without growing or over-allocating.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/histogram.hpp"
#include "src/common/rng.hpp"
#include "src/common/units.hpp"

namespace paldia::telemetry {

struct RequestOutcome {
  DurationMs latency_ms = 0.0;       // completion - arrival
  DurationMs solo_ms = 0.0;          // isolated execution component
  DurationMs interference_ms = 0.0;  // MPS contention stretch
  DurationMs cold_start_ms = 0.0;    // container boot charged to the request

  /// Batching + lane + container waits: the latency the other components
  /// do not explain.
  DurationMs queue_ms() const {
    return std::max(0.0, latency_ms - solo_ms - interference_ms - cold_start_ms);
  }
};

/// Mean component values of requests near a latency quantile.
struct TailBreakdown {
  DurationMs latency_ms = 0.0;
  DurationMs solo_ms = 0.0;
  DurationMs queue_ms = 0.0;
  DurationMs interference_ms = 0.0;
  DurationMs cold_start_ms = 0.0;
  std::size_t samples = 0;
};

class LatencyRecorder {
 public:
  static constexpr std::size_t kDefaultReservoirCapacity = 200'000;

  /// Reserves `reservoir_capacity` records up front.
  explicit LatencyRecorder(std::size_t reservoir_capacity = kDefaultReservoirCapacity,
                           std::uint64_t seed = 0xdead'beef);

  void record(const RequestOutcome& outcome);

  const Histogram& e2e() const { return e2e_; }
  std::uint64_t count() const { return e2e_.count(); }

  DurationMs p99_ms() const { return e2e_.quantile(0.99); }
  DurationMs mean_ms() const { return e2e_.mean(); }

  /// P50/P95/P99 in one histogram scan (three quantile() calls pay three).
  struct Percentiles {
    DurationMs p50_ms = 0.0;
    DurationMs p95_ms = 0.0;
    DurationMs p99_ms = 0.0;
  };
  Percentiles percentiles() const {
    const double qs[] = {0.5, 0.95, 0.99};
    const auto values = e2e_.quantiles(qs);
    return Percentiles{values[0], values[1], values[2]};
  }

  /// Component breakdown of requests whose latency falls within
  /// [quantile - half_band, quantile + half_band] of the distribution.
  TailBreakdown breakdown_at(double quantile, double half_band = 0.005) const;

  /// CDF points of the end-to-end latency (value, cumulative fraction).
  std::vector<std::pair<double, double>> cdf() const { return e2e_.cdf(); }

 private:
  Histogram e2e_;
  std::vector<RequestOutcome> reservoir_;
  std::size_t reservoir_capacity_;
  std::uint64_t seen_ = 0;
  Rng rng_;
};

}  // namespace paldia::telemetry
