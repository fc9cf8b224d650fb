#include "src/baselines/oracle.hpp"

#include <algorithm>

namespace paldia::baselines {

OraclePolicy::OraclePolicy(const models::Zoo& zoo, const hw::Catalog& catalog,
                           const models::ProfileTable& profile, ThreadPool* pool,
                           double tmax_beta)
    : SchedulerPolicy(catalog),
      optimizer_(perfmodel::TmaxModel(tmax_beta), pool),
      selection_(zoo, catalog, profile, optimizer_) {
  selection_.set_tmax_cache(&tmax_cache_);
}

void OraclePolicy::reveal_trace(models::ModelId model, const trace::Trace& trace) {
  traces_[model] = &trace;
}

core::DemandSnapshot OraclePolicy::clairvoyant(const core::DemandSnapshot& demand,
                                               TimeMs now) const {
  core::DemandSnapshot revealed = demand;
  auto it = traces_.find(demand.model);
  if (it != traces_.end()) {
    // The worst upcoming 1 s rate over the procurement horizon — the oracle
    // provisions for what actually arrives, not a smoothed estimate.
    Rps worst = 0.0;
    for (DurationMs ahead = 0.0; ahead <= 4000.0; ahead += 1000.0) {
      worst = std::max(worst, it->second->rate_at(now + ahead, 1000.0));
    }
    revealed.predicted_rps = worst;
    // The oracle's knowledge *is* the smoothed truth — both signals carry
    // the actual upcoming rate (no prediction noise to damp).
    revealed.smoothed_rps = worst;
  }
  return revealed;
}

hw::NodeType OraclePolicy::select_hardware(
    const std::vector<core::DemandSnapshot>& demand, hw::NodeType /*current*/,
    TimeMs now) {
  std::vector<core::DemandSnapshot> revealed;
  revealed.reserve(demand.size());
  for (const auto& snapshot : demand) revealed.push_back(clairvoyant(snapshot, now));
  return selection_.choose(revealed).node;  // no hysteresis: switch at once
}

core::SplitPlan OraclePolicy::plan_dispatch(const core::DemandSnapshot& demand,
                                            hw::NodeType node, TimeMs /*now*/) {
  return selection_.plan_dispatch(demand, node);
}

}  // namespace paldia::baselines
