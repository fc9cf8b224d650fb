#include "src/telemetry/util_tracker.hpp"

#include <algorithm>

namespace paldia::telemetry {

UtilTracker::UtilTracker(sim::Simulator& simulator, const cluster::Cluster& cluster,
                         DurationMs sample_period_ms)
    : simulator_(&simulator), cluster_(&cluster), period_ms_(sample_period_ms) {}

int UtilTracker::tracked_types() const {
  return std::min(hw::kNodeTypeCount,
                  static_cast<int>(cluster_->catalog().size()));
}

void UtilTracker::arm(TimeMs end_ms) {
  end_ms_ = end_ms;
  last_sample_ms_ = simulator_->now();
  for (int i = 0; i < tracked_types(); ++i) {
    last_busy_ms_[static_cast<std::size_t>(i)] =
        cluster_->node(hw::NodeType(i)).device_busy_time_ms();
  }
  simulator_->schedule_in(period_ms_, [this] { sample(); });
}

void UtilTracker::sample() {
  const TimeMs now = simulator_->now();
  const DurationMs dt = now - last_sample_ms_;
  if (dt > 0.0) {
    for (int i = 0; i < tracked_types(); ++i) {
      const auto index = static_cast<std::size_t>(i);
      const auto type = hw::NodeType(i);
      const DurationMs busy = cluster_->node(type).device_busy_time_ms();
      const DurationMs delta = busy - last_busy_ms_[index];
      last_busy_ms_[index] = busy;
      if (!cluster_->held(type)) continue;
      held_ms_[index] += dt;
      busy_while_held_ms_[index] += std::clamp(delta, 0.0, dt);
    }
  }
  last_sample_ms_ = now;
  if (now + period_ms_ <= end_ms_) {
    simulator_->schedule_in(period_ms_, [this] { sample(); });
  }
}

double UtilTracker::utilization(hw::NodeType type) const {
  const auto index = static_cast<std::size_t>(type);
  return held_ms_[index] <= 0.0 ? 0.0 : busy_while_held_ms_[index] / held_ms_[index];
}

double UtilTracker::gpu_utilization() const {
  DurationMs busy = 0.0, held = 0.0;
  for (int i = 0; i < tracked_types(); ++i) {
    if (!cluster_->catalog().spec(hw::NodeType(i)).is_gpu()) continue;
    busy += busy_while_held_ms_[static_cast<std::size_t>(i)];
    held += held_ms_[static_cast<std::size_t>(i)];
  }
  return held <= 0.0 ? 0.0 : busy / held;
}

double UtilTracker::cpu_utilization() const {
  DurationMs busy = 0.0, held = 0.0;
  for (int i = 0; i < tracked_types(); ++i) {
    if (cluster_->catalog().spec(hw::NodeType(i)).is_gpu()) continue;
    busy += busy_while_held_ms_[static_cast<std::size_t>(i)];
    held += held_ms_[static_cast<std::size_t>(i)];
  }
  return held <= 0.0 ? 0.0 : busy / held;
}

}  // namespace paldia::telemetry
