#include "src/telemetry/latency_recorder.hpp"

#include <algorithm>

namespace paldia::telemetry {

LatencyRecorder::LatencyRecorder(std::size_t reservoir_capacity, std::uint64_t seed)
    : reservoir_capacity_(reservoir_capacity), rng_(seed) {
  reservoir_.reserve(reservoir_capacity);
}

void LatencyRecorder::record(const RequestOutcome& outcome) {
  e2e_.add(outcome.latency_ms);
  ++seen_;
  if (reservoir_.size() < reservoir_capacity_) {
    reservoir_.push_back(outcome);
  } else {
    // Vitter's algorithm R: keep each seen record with probability cap/seen.
    const auto slot = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(seen_) - 1));
    if (slot < reservoir_capacity_) reservoir_[slot] = outcome;
  }
}

TailBreakdown LatencyRecorder::breakdown_at(double quantile, double half_band) const {
  TailBreakdown breakdown;
  if (reservoir_.empty()) return breakdown;
  // One bucket scan answers the band edges and the centre (the centre is
  // only needed by the narrow-band fallback below, but it rides along for
  // free in the same pass).
  const double band_qs[] = {std::clamp(quantile - half_band, 0.0, 1.0),
                            std::clamp(quantile + half_band, 0.0, 1.0), quantile};
  const auto band_values = e2e_.quantiles(band_qs);
  const double lo_value = band_values[0];
  const double hi_value = band_values[1];
  double latency = 0, solo = 0, queue = 0, interference = 0, cold = 0;
  std::size_t hits = 0;
  for (const auto& outcome : reservoir_) {
    if (outcome.latency_ms < lo_value || outcome.latency_ms > hi_value) continue;
    latency += outcome.latency_ms;
    solo += outcome.solo_ms;
    queue += outcome.queue_ms();
    interference += outcome.interference_ms;
    cold += outcome.cold_start_ms;
    ++hits;
  }
  if (hits == 0) {
    // Band too narrow for the reservoir; fall back to the nearest record.
    const double target = band_values[2];
    const auto* nearest = &reservoir_.front();
    for (const auto& outcome : reservoir_) {
      if (std::abs(outcome.latency_ms - target) <
          std::abs(nearest->latency_ms - target)) {
        nearest = &outcome;
      }
    }
    return TailBreakdown{nearest->latency_ms, nearest->solo_ms, nearest->queue_ms(),
                         nearest->interference_ms, nearest->cold_start_ms, 1};
  }
  const auto n = static_cast<double>(hits);
  return TailBreakdown{latency / n, solo / n,         queue / n,
                       interference / n, cold / n, hits};
}

}  // namespace paldia::telemetry
