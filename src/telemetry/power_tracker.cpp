#include "src/telemetry/power_tracker.hpp"

#include <algorithm>

namespace paldia::telemetry {

PowerTracker::PowerTracker(sim::Simulator& simulator, const cluster::Cluster& cluster,
                           DurationMs sample_period_ms)
    : simulator_(&simulator), cluster_(&cluster), period_ms_(sample_period_ms) {}

int PowerTracker::tracked_types() const {
  return std::min(hw::kNodeTypeCount,
                  static_cast<int>(cluster_->catalog().size()));
}

void PowerTracker::arm(TimeMs end_ms) {
  end_ms_ = end_ms;
  started_ms_ = simulator_->now();
  last_sample_ms_ = started_ms_;
  for (int i = 0; i < tracked_types(); ++i) {
    last_busy_ms_[static_cast<std::size_t>(i)] =
        cluster_->node(hw::NodeType(i)).device_busy_time_ms();
  }
  simulator_->schedule_in(period_ms_, [this] { sample(); });
}

void PowerTracker::sample() {
  const TimeMs now = simulator_->now();
  const DurationMs dt = now - last_sample_ms_;
  if (dt > 0.0) {
    for (int i = 0; i < tracked_types(); ++i) {
      const auto type = hw::NodeType(i);
      const auto& node = cluster_->node(type);
      const DurationMs busy = node.device_busy_time_ms();
      const double util =
          std::clamp((busy - last_busy_ms_[static_cast<std::size_t>(i)]) / dt, 0.0, 1.0);
      last_busy_ms_[static_cast<std::size_t>(i)] = busy;
      if (!cluster_->held(type)) continue;
      const hw::PowerModel model(node.spec());
      const Watts draw = node.is_gpu()
                             ? model.power(util * kHostCpuShareOfGpuWork, util)
                             : model.power(util, 0.0);
      energy_wms_ += draw * dt;
    }
  }
  last_sample_ms_ = now;
  if (now + period_ms_ <= end_ms_) {
    simulator_->schedule_in(period_ms_, [this] { sample(); });
  }
}

Watts PowerTracker::average_power() const {
  const DurationMs elapsed = last_sample_ms_ - started_ms_;
  return elapsed <= 0.0 ? 0.0 : energy_wms_ / elapsed;
}

}  // namespace paldia::telemetry
