// The Hardware Selection module (paper component 2, Algorithm 1).
//
// Every monitor interval: predict demand ~4 s ahead, build the pool of
// capable candidates from the profiles, sort by cost, evaluate each node's
// best achievable T_max in cost order (CPU nodes via approx_T_max, GPU nodes
// via the parallel y-sweep), then choose the cheapest node within ~50 ms of
// the most performant one. Hysteresis (wait_limit consecutive mismatches
// before reconfiguring) lives in PaldiaPolicy, which owns the wait counter.
// The same class plans each dispatch round's split (Section IV-D), so
// Paldia and the Oracle share one Eq. 1 sweep and one planner.
#pragma once

#include <vector>

#include "src/core/scheduler_policy.hpp"
#include "src/hw/catalog.hpp"
#include "src/models/profile.hpp"
#include "src/models/zoo.hpp"
#include "src/perfmodel/cpu_latency_model.hpp"
#include "src/perfmodel/tmax_cache.hpp"
#include "src/perfmodel/y_optimizer.hpp"

namespace paldia::core {

struct HardwareSelectionConfig {
  /// choose_best_HW: cheapest node within this much of the best T_max.
  DurationMs performance_band_ms = 50.0;
  /// Headroom factor on the SLO when judging feasibility (leaves room for
  /// batching delay and model error).
  double slo_headroom = 0.85;
};

struct HardwareChoice {
  hw::NodeType node{};
  int best_y = 0;              // for GPU nodes: the winning split
  DurationMs t_max_ms = 0.0;   // predicted worst-case latency on the node
  bool feasible = false;       // t_max within the (headroomed) SLO
};

/// Optional record of one choose() call: the full candidate sweep plus the
/// choose_best_HW inputs, for the observability decision log.
struct SelectionSweep {
  /// The capable pool, cost-ascending; an escalation to the most performant
  /// GPU from outside the pool is appended last.
  std::vector<HardwareChoice> candidates;
  DurationMs band_ms = 0.0;                // clamped performance band
  /// Best feasible GPU T_max (the band anchor); 0 when none was feasible or
  /// a feasible CPU won first.
  DurationMs best_feasible_gpu_t_max_ms = 0.0;
  bool cpu_short_circuit = false;  // a feasible CPU node won outright
  int pool_size = 0;               // capable candidates evaluated
};

class HardwareSelection {
 public:
  HardwareSelection(const models::Zoo& zoo, const hw::Catalog& catalog,
                    const models::ProfileTable& profile,
                    const perfmodel::YOptimizer& optimizer,
                    HardwareSelectionConfig config = {});

  /// Evaluate one candidate node against the demand (max T_max across
  /// models). Exposed for tests and for the Oracle's offline sweeps.
  HardwareChoice evaluate(hw::NodeType node,
                          const std::vector<DemandSnapshot>& demand) const;

  /// Full Algorithm 1 selection (pool, choose_best_HW): every pool member
  /// is evaluated, cheapest first; the first feasible CPU wins, else the
  /// cheapest feasible GPU within the band of the best. When no node is
  /// feasible the most performant GPU is returned (the escalation path of
  /// Section III); on a CPU-only catalog the least-bad CPU is returned
  /// instead of aborting. When `sweep` is non-null it receives the whole
  /// candidate evaluation (observability decision log); recording changes
  /// no work and no choice.
  HardwareChoice choose(const std::vector<DemandSnapshot>& demand,
                        SelectionSweep* sweep = nullptr) const;

  /// The Job Distributor's plan for one dispatch round on `node`
  /// (Section IV-D). A CPU node serves approx_cpu_t_max's batch size
  /// sequentially; a GPU node splits N = backlog by the Eq. 1 y-sweep,
  /// judged against the headroomed SLO.
  SplitPlan plan_dispatch(const DemandSnapshot& demand, hw::NodeType node) const;

  /// Requests that must coexist on the node: the current backlog plus the
  /// predicted arrivals of one SLO window.
  int coexisting_requests(const DemandSnapshot& demand, DurationMs slo_ms) const;

  const HardwareSelectionConfig& config() const { return config_; }

  /// Memoize the per-(model, node, N) y-sweeps through `cache` (owned by
  /// the policy; null disables memoization entirely). Because the sweep is
  /// deterministic over the immutable profile table, the cache only changes
  /// wall-clock time — choose()/evaluate()/plan_dispatch() results are
  /// bit-identical.
  void set_tmax_cache(perfmodel::TmaxCache* cache) { cache_ = cache; }

 private:
  /// best_split through the cache when one is attached.
  perfmodel::SharingDecision sweep(models::ModelId model, hw::NodeType node,
                                   const perfmodel::WorkloadPoint& point) const;

  std::vector<hw::NodeType> build_pool(const std::vector<DemandSnapshot>& demand) const;

  const models::Zoo* zoo_;
  const hw::Catalog* catalog_;
  const models::ProfileTable* profile_;
  const perfmodel::YOptimizer* optimizer_;
  perfmodel::TmaxCache* cache_ = nullptr;
  HardwareSelectionConfig config_;
};

}  // namespace paldia::core
