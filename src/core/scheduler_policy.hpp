// The scheme interface: every evaluated system (Paldia, INFless/Llama $/P,
// Molecule beta $/P, Offline Hybrid, Oracle) implements this. The Framework
// calls select_hardware() every monitor interval and plan_dispatch() every
// dispatch round; everything else (batching mechanics, autoscaling,
// procurement, failover plumbing) is shared, mirroring the paper's setup
// where the baselines are "schemes which employ the request serving
// policies of" the respective frameworks (Section V) inside one harness.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/units.hpp"
#include "src/hw/catalog.hpp"
#include "src/models/profile.hpp"
#include "src/models/zoo.hpp"
#include "src/perfmodel/tmax_cache.hpp"
#include "src/perfmodel/y_optimizer.hpp"

namespace paldia::obs {
class Tracer;
}  // namespace paldia::obs

namespace paldia::core {

/// Per-model demand snapshot handed to the policies.
struct DemandSnapshot {
  models::ModelId model{};
  Rps observed_rps = 0.0;   // trailing-window arrival rate
  /// Trend-boosted prediction at the procurement horizon. Reacts fast on
  /// surge fronts; noisy in steady state. Used for escalation decisions.
  Rps predicted_rps = 0.0;
  /// Smoothed EWMA level (no trend extrapolation). Stable in steady state;
  /// used to judge sustained feasibility of a node.
  Rps smoothed_rps = 0.0;
  int backlog = 0;          // requests pending at the gateway right now
};

/// How to serve one model's pending requests this dispatch round.
struct SplitPlan {
  int spatial_requests = 0;   // concurrent via MPS (one container per batch)
  int temporal_requests = 0;  // queued on the time-shared lane
  int batch_size = 1;         // chunk size for both portions
  bool use_cpu = false;       // serve with the framework's batched CPU mode
};

class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  virtual std::string name() const = 0;

  /// Pick the node type to serve the coming interval. Called every monitor
  /// interval with the aggregate demand of every active model. Returning
  /// the current node keeps it; a different node triggers background
  /// procurement and reroute (subject to the policy's own hysteresis —
  /// implementations decide when to actually move).
  virtual hw::NodeType select_hardware(const std::vector<DemandSnapshot>& demand,
                                       hw::NodeType current, TimeMs now) = 0;

  /// Split one model's pending requests for this dispatch round on `node`.
  ///
  /// Contract (the dispatch timer skips ticks on it): the batcher's target
  /// is the returned batch_size clamped to [1, the model's max_batch]. If
  /// that target exceeds demand.backlog for some snapshot with backlog > 0,
  ///  - it is the target for every snapshot of the same (model, node),
  ///    whatever the backlog, rates or time, and
  ///  - such a call changes no state (tmax_cache_stats() included).
  /// Targets that never exceed the backlog (Paldia, Oracle) or depend only
  /// on (model, node) (INFless/Llama, Molecule, Offline Hybrid) meet it. A
  /// policy that breaks it would see the batcher consulted too rarely.
  virtual SplitPlan plan_dispatch(const DemandSnapshot& demand, hw::NodeType node,
                                  TimeMs now) = 0;

  /// Failover target after `failed` went down (Fig. 13b: every scheme
  /// switches to "the more performant hardware with the least cost"; a
  /// scheme already on the most performant node steps down to the next
  /// best GPU). Default implements exactly that rule.
  virtual hw::NodeType on_node_failure(hw::NodeType failed);

  /// Containers the autoscaler should keep warm for the given demand
  /// (reactive/predictive scale-up both call this). Default: one container
  /// per spatially-shared batch, as in Section IV-C.
  virtual int desired_containers(const SplitPlan& plan) const;

  /// Observability hook (may be null — tracing disabled). Policies that
  /// record decision sweeps check tracer() inside select_hardware().
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Hit/miss totals of the policy's Eq. 1 sweep memoization (all-zero for
  /// policies without a TmaxCache). Surfaced into RunMetrics by the runner.
  virtual perfmodel::TmaxCacheStats tmax_cache_stats() const { return {}; }

 protected:
  explicit SchedulerPolicy(const hw::Catalog& catalog) : catalog_(&catalog) {}
  const hw::Catalog& catalog() const { return *catalog_; }
  obs::Tracer* tracer() const { return tracer_; }

 private:
  const hw::Catalog* catalog_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace paldia::core
