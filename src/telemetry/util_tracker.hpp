// Node utilization (Fig. 8): utilization = device non-idle time as a
// fraction of the time the node type was *held* by the scheme. Sampled so
// hold intervals and busy intervals line up.
#pragma once

#include <array>

#include "src/cluster/cluster.hpp"
#include "src/sim/simulator.hpp"

namespace paldia::telemetry {

class UtilTracker {
 public:
  UtilTracker(sim::Simulator& simulator, const cluster::Cluster& cluster,
              DurationMs sample_period_ms = 500.0);

  void arm(TimeMs end_ms);

  /// Busy fraction of the node type over the time it was held; 0 when the
  /// type was never held.
  double utilization(hw::NodeType type) const;

  /// Aggregate over all GPU (resp. CPU) node types, weighted by held time.
  double gpu_utilization() const;
  double cpu_utilization() const;

 private:
  void sample();

  /// Tracked node types: the catalog prefix the fixed-size accumulators
  /// cover. Slice catalogs (fleet endpoints) are smaller than
  /// kNodeTypeCount; indexing past their cluster's nodes would be UB.
  int tracked_types() const;

  sim::Simulator* simulator_;
  const cluster::Cluster* cluster_;
  DurationMs period_ms_;
  TimeMs end_ms_ = 0.0;
  TimeMs last_sample_ms_ = 0.0;
  std::array<DurationMs, hw::kNodeTypeCount> busy_while_held_ms_{};
  std::array<DurationMs, hw::kNodeTypeCount> held_ms_{};
  std::array<DurationMs, hw::kNodeTypeCount> last_busy_ms_{};
};

}  // namespace paldia::telemetry
