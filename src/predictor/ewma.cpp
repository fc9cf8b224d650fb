#include "src/predictor/ewma.hpp"

#include <algorithm>

namespace paldia::predictor {

void EwmaPredictor::observe(TimeMs now, Rps rate) {
  if (!primed_) {
    level_ = rate;
    trend_per_ms_ = 0.0;
    primed_ = true;
    last_observe_ms_ = now;
    return;
  }
  // observe() is public, so nothing stops a caller from repeating a
  // timestamp or handing in an older one. Such a stale sample (now <= last
  // observation) must not move the level and would make the trend's dt
  // non-positive, so it is dropped outright.
  if (now <= last_observe_ms_) return;
  const double previous_level = level_;
  level_ = alpha_ * rate + (1.0 - alpha_) * level_;
  // Clamp dt to one tick: near-duplicate timestamps otherwise explode the
  // instantaneous trend.
  const DurationMs dt = std::max(1.0, now - last_observe_ms_);
  const double instantaneous_trend = (level_ - previous_level) / dt;
  trend_per_ms_ =
      trend_alpha_ * instantaneous_trend + (1.0 - trend_alpha_) * trend_per_ms_;
  last_observe_ms_ = now;
}

Rps EwmaPredictor::predict(TimeMs, DurationMs horizon_ms) const {
  return std::max(0.0, level_ + trend_per_ms_ * horizon_ms);
}

}  // namespace paldia::predictor
