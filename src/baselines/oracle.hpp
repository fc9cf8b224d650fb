// Oracle (Section VI-B): an offline, clairvoyant scheme with all of
// Paldia's policies but perfect knowledge — it reads the *actual* future
// arrival rate straight from the trace instead of predicting it, and
// switches hardware without hysteresis (the ideal hardware timeline is
// "known beforehand" via offline sweeps). Dispatch rounds are planned
// exactly as Paldia plans them, by HardwareSelection::plan_dispatch.
#pragma once

#include <map>

#include "src/core/hardware_selection.hpp"
#include "src/core/scheduler_policy.hpp"
#include "src/trace/trace.hpp"

namespace paldia::baselines {

class OraclePolicy final : public core::SchedulerPolicy {
 public:
  OraclePolicy(const models::Zoo& zoo, const hw::Catalog& catalog,
               const models::ProfileTable& profile, ThreadPool* pool = nullptr,
               double tmax_beta = 0.2);

  /// Register the true trace of a workload (clairvoyance source).
  void reveal_trace(models::ModelId model, const trace::Trace& trace);

  std::string name() const override { return "Oracle"; }

  hw::NodeType select_hardware(const std::vector<core::DemandSnapshot>& demand,
                               hw::NodeType current, TimeMs now) override;

  core::SplitPlan plan_dispatch(const core::DemandSnapshot& demand,
                                hw::NodeType node, TimeMs now) override;

  perfmodel::TmaxCacheStats tmax_cache_stats() const override {
    return tmax_cache_.stats();
  }

 private:
  core::DemandSnapshot clairvoyant(const core::DemandSnapshot& demand,
                                   TimeMs now) const;

  perfmodel::YOptimizer optimizer_;
  perfmodel::TmaxCache tmax_cache_;
  core::HardwareSelection selection_;
  std::map<models::ModelId, const trace::Trace*> traces_;
};

}  // namespace paldia::baselines
