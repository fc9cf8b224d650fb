#include "src/core/paldia_policy.hpp"

#include <algorithm>

#include "src/obs/tracer.hpp"

namespace paldia::core {

PaldiaPolicy::PaldiaPolicy(const models::Zoo& zoo, const hw::Catalog& catalog,
                           const models::ProfileTable& profile, ThreadPool* pool,
                           PaldiaPolicyConfig config)
    : SchedulerPolicy(catalog),
      optimizer_(perfmodel::TmaxModel(config.tmax_beta), pool),
      selection_(zoo, catalog, profile, optimizer_, config.selection),
      config_(config) {
  selection_.set_tmax_cache(&tmax_cache_);
}

void PaldiaPolicy::sync_cache_counters() {
  if (tracer() == nullptr) return;
  const perfmodel::TmaxCacheStats stats = tmax_cache_.stats();
  // Deltas (not totals) because Tracer::count accumulates; a zero delta
  // still registers the counter, keeping the sampled stream's key set
  // identical whether or not any sweep ran this interval.
  tracer()->count("tmax_cache_hit",
                  static_cast<double>(stats.hits - synced_hits_));
  tracer()->count("tmax_cache_miss",
                  static_cast<double>(stats.misses - synced_misses_));
  synced_hits_ = stats.hits;
  synced_misses_ = stats.misses;
}

hw::NodeType PaldiaPolicy::select_hardware(const std::vector<DemandSnapshot>& demand,
                                           hw::NodeType current, TimeMs /*now*/) {
  // The framework opened the tick's decision record before calling us.
  obs::DecisionRecord* rec =
      tracer() != nullptr ? tracer()->current_decision() : nullptr;
  // Recording the sweep changes no work, so only an open record asks for it.
  SelectionSweep sweep;
  const HardwareChoice choice =
      selection_.choose(demand, rec != nullptr ? &sweep : nullptr);
  const hw::NodeType decided = apply_hysteresis(choice, current, demand);
  // The monitor tick samples counters right after this call; flushing here
  // folds the interval's dispatch-round sweeps into the same sample.
  sync_cache_counters();
  if (rec != nullptr) {
    rec->raw_choice = choice.node;
    rec->raw_feasible = choice.feasible;
    rec->raw_t_max_ms = choice.t_max_ms;
    rec->has_sweep = true;
    rec->band_ms = sweep.band_ms;
    rec->best_t_max_ms = sweep.best_feasible_gpu_t_max_ms;
    rec->cpu_short_circuit = sweep.cpu_short_circuit;
    rec->pool_size = sweep.pool_size;
    rec->wait_ctr = wait_ctr_;  // counter state *after* the decision
    rec->downgrade_ctr = downgrade_ctr_;
    rec->emergency_ctr = emergency_ctr_;
    rec->candidates.reserve(sweep.candidates.size());
    for (const auto& candidate : sweep.candidates) {
      obs::CandidateEval eval;
      eval.node = candidate.node;
      eval.t_max_ms = candidate.t_max_ms;
      eval.feasible = candidate.feasible;
      eval.is_gpu = catalog().spec(candidate.node).is_gpu();
      eval.price_per_hour = catalog().spec(candidate.node).price_per_hour;
      eval.best_y = candidate.best_y;
      rec->candidates.push_back(eval);
    }
  }
  return decided;
}

hw::NodeType PaldiaPolicy::apply_hysteresis(const HardwareChoice& choice,
                                            hw::NodeType current,
                                            const std::vector<DemandSnapshot>& demand) {
  // Hysteresis (Algorithm 1 tail): only reconfigure after wait_limit
  // consecutive rounds prefer the same non-current node — repeated
  // mismatches reveal a trend rather than noise. The downgrade counter is
  // leaky rather than hard-reset: a single noisy round in which the
  // current node is preferred should not erase an established
  // cost-saving trend.
  if (choice.node == current) {
    wait_ctr_ = 0;
    has_last_choice_ = false;
    downgrade_ctr_ = std::max(0, downgrade_ctr_ - 1);
    return current;
  }
  // Emergency escalation: when the *current* node is predicted to violate
  // the SLO and the selector wants stronger hardware, waiting out the
  // hysteresis only deepens the backlog — reconfigure immediately. The
  // wait counter exists to confirm cost-saving trends, not to delay
  // SLO-preserving upgrades.
  const bool upgrade = catalog().spec(choice.node).price_per_hour >
                       catalog().spec(current).price_per_hour;
  if (upgrade && !selection_.evaluate(current, demand).feasible) {
    // Two consecutive confirming rounds filter out single-sample noise in
    // the rate prediction while still reacting within one monitor period.
    ++emergency_ctr_;
    if (emergency_ctr_ >= 2) {
      emergency_ctr_ = 0;
      wait_ctr_ = 0;
      has_last_choice_ = false;
      return choice.node;
    }
  } else {
    emergency_ctr_ = 0;
  }

  const bool downgrade = catalog().spec(choice.node).price_per_hour <
                         catalog().spec(current).price_per_hour;
  if (downgrade) {
    // Downgrades only require that *some* cheaper node keeps sufficing —
    // which cheap node wins may flutter with the rate.
    ++downgrade_ctr_;
    if (downgrade_ctr_ >= config_.downgrade_wait_limit) {
      downgrade_ctr_ = 0;
      wait_ctr_ = 0;
      has_last_choice_ = false;
      return choice.node;
    }
    return current;
  }

  // Upgrades require the *same* target repeatedly (a trend towards
  // specific stronger hardware).
  if (has_last_choice_ && last_choice_ == choice.node) {
    ++wait_ctr_;
  } else {
    wait_ctr_ = 1;
  }
  last_choice_ = choice.node;
  has_last_choice_ = true;
  if (wait_ctr_ >= config_.wait_limit) {
    wait_ctr_ = 0;
    has_last_choice_ = false;
    return choice.node;
  }
  return current;
}

SplitPlan PaldiaPolicy::plan_dispatch(const DemandSnapshot& demand, hw::NodeType node,
                                      TimeMs) {
  return selection_.plan_dispatch(demand, node);
}

}  // namespace paldia::core
