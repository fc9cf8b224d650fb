// Power sampling (substitutes nvtop/powerstat, Section V): every sampling
// period, each held node's utilization since the previous sample feeds the
// linear power model; energy integrates over the run. Host CPU activity on
// GPU nodes is approximated as a fixed fraction of GPU activity (request
// plumbing scales with serving work).
#pragma once

#include <array>

#include "src/cluster/cluster.hpp"
#include "src/hw/power_model.hpp"
#include "src/sim/simulator.hpp"

namespace paldia::telemetry {

class PowerTracker {
 public:
  PowerTracker(sim::Simulator& simulator, const cluster::Cluster& cluster,
               DurationMs sample_period_ms = 1000.0);

  /// Begin sampling until end_ms.
  void arm(TimeMs end_ms);

  /// Average draw of all held nodes over the sampled interval, W.
  Watts average_power() const;

  /// Total energy, Watt-ms.
  double energy_wms() const { return energy_wms_; }

 private:
  void sample();

  /// Catalog prefix the fixed-size accumulators cover (slice catalogs are
  /// smaller than kNodeTypeCount; indexing past their nodes would be UB).
  int tracked_types() const;

  sim::Simulator* simulator_;
  const cluster::Cluster* cluster_;
  DurationMs period_ms_;
  TimeMs end_ms_ = 0.0;
  TimeMs started_ms_ = 0.0;
  TimeMs last_sample_ms_ = 0.0;
  double energy_wms_ = 0.0;
  std::array<DurationMs, hw::kNodeTypeCount> last_busy_ms_{};

  static constexpr double kHostCpuShareOfGpuWork = 0.25;
};

}  // namespace paldia::telemetry
