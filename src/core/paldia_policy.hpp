// PALDIA's scheduling policy: Algorithm 1 hardware selection with
// hysteresis, plus hybrid spatio-temporal dispatch planning (Section IV-D:
// the Job Distributor enacts the best y split computed by the model). Both
// decisions run through one HardwareSelection and its memoized Eq. 1 sweep.
#pragma once

#include <cstdint>
#include <memory>

#include "src/core/hardware_selection.hpp"
#include "src/core/scheduler_policy.hpp"

namespace paldia::core {

struct PaldiaPolicyConfig {
  HardwareSelectionConfig selection;
  /// Consecutive mismatches before reconfiguring to a *more expensive*
  /// node (Algorithm 1's wait_limit).
  int wait_limit = 3;
  /// Mismatches required to move to a *cheaper* node. Deliberately much
  /// larger: downgrades save pennies but each transition risks SLO
  /// violations, the same conservatism as the delayed-termination
  /// keep-alive (Section IV-C).
  int downgrade_wait_limit = 24;
  double tmax_beta = 0.2;    // scheduler-side contention coefficient
};

class PaldiaPolicy final : public SchedulerPolicy {
 public:
  PaldiaPolicy(const models::Zoo& zoo, const hw::Catalog& catalog,
               const models::ProfileTable& profile, ThreadPool* pool = nullptr,
               PaldiaPolicyConfig config = {});

  std::string name() const override { return "Paldia"; }

  hw::NodeType select_hardware(const std::vector<DemandSnapshot>& demand,
                               hw::NodeType current, TimeMs now) override;

  SplitPlan plan_dispatch(const DemandSnapshot& demand, hw::NodeType node,
                          TimeMs now) override;

  const HardwareSelection& selection() const { return selection_; }
  int wait_counter() const { return wait_ctr_; }

  perfmodel::TmaxCacheStats tmax_cache_stats() const override {
    return tmax_cache_.stats();
  }

 private:
  /// Algorithm 1's tail: wait/downgrade/emergency counters deciding when
  /// the raw choice actually triggers a reconfiguration.
  hw::NodeType apply_hysteresis(const HardwareChoice& choice, hw::NodeType current,
                                const std::vector<DemandSnapshot>& demand);

  /// Flush cache hit/miss deltas into the tracer's counter registry (the
  /// samples ride the monitor-tick counter dump).
  void sync_cache_counters();

  perfmodel::YOptimizer optimizer_;
  perfmodel::TmaxCache tmax_cache_;
  HardwareSelection selection_;
  PaldiaPolicyConfig config_;
  std::uint64_t synced_hits_ = 0;
  std::uint64_t synced_misses_ = 0;
  int wait_ctr_ = 0;
  hw::NodeType last_choice_{};
  bool has_last_choice_ = false;
  int downgrade_ctr_ = 0;
  int emergency_ctr_ = 0;
};

}  // namespace paldia::core
