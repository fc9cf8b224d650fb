// The Job Distribution logic (paper component 6): turns a SplitPlan into
// batches and schedules them on the node — spatial portion via MPS, the
// remaining y requests on the time-shared lane, CPU plans via the batched
// CPU mode — and fans batch completions out to per-request outcomes.
#pragma once

#include <array>
#include <vector>

#include "src/cluster/node.hpp"
#include "src/common/inline_function.hpp"
#include "src/core/batcher.hpp"
#include "src/core/scheduler_policy.hpp"

namespace paldia::obs {
class AttributionEngine;
class CalibrationTracker;
class Tracer;
}  // namespace paldia::obs

namespace paldia::core {

class JobDistributor {
 public:
  /// Per-request completion. The node type is the one the batch actually
  /// executed on (captured at submit; the active node may have moved by the
  /// time the callback fires). InlineFunction (not std::function) so wiring
  /// the framework's callbacks never heap-allocates.
  using RequestCompleteFn = InlineFunction<void(
      const cluster::Request&, const cluster::ExecutionReport&, hw::NodeType)>;
  using RequeueFn = InlineFunction<void(models::ModelId, cluster::RequestBlock)>;

  JobDistributor(const Batcher& batcher, cluster::IdAllocator& ids,
                 RequestCompleteFn on_request_complete, RequeueFn on_requeue)
      : batcher_(&batcher),
        ids_(&ids),
        on_request_complete_(std::move(on_request_complete)),
        on_requeue_(std::move(on_requeue)) {}

  /// Execute the plan. `requests` are oldest-first; the spatial portion
  /// takes the oldest ones (they have the least SLO slack and spatial
  /// execution starts immediately). Returns the number of batches created.
  /// The block's buffer recycles into the arena on return; batches carve
  /// their own pooled blocks out of it.
  int dispatch(cluster::Node& node, const SplitPlan& plan,
               cluster::RequestBlock requests, TimeMs now);

  /// Batches submitted but not yet completed (successfully or not).
  int in_flight() const { return in_flight_; }

  /// Requests of `model` in those batches: on a device or waiting for a
  /// container.
  int in_flight_requests(models::ModelId model) const {
    return in_flight_requests_[static_cast<std::size_t>(model)];
  }

  /// Observability hook (null = tracing disabled; single-branch cost).
  /// Completed batches then emit per-request lifecycle spans and batch
  /// execution slices tagged with the round's spatial/temporal split.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Attribution hook (null = disabled): failed batches mark their requests
  /// as retried before the requeue, so the eventual completions classify as
  /// failure_retry.
  void set_attribution(obs::AttributionEngine* attribution) {
    attribution_ = attribution;
  }

  /// Calibration hook (null = disabled): successful batches report their
  /// submit->completion time against the monitor tick's T_max prediction.
  void set_calibration(obs::CalibrationTracker* calibration) {
    calibration_ = calibration;
  }

 private:
  void submit_batch(cluster::Node& node, cluster::Batch batch, cluster::ShareMode mode,
                    int spatial, int temporal);

  const Batcher* batcher_;
  cluster::IdAllocator* ids_;
  RequestCompleteFn on_request_complete_;
  RequeueFn on_requeue_;
  obs::Tracer* tracer_ = nullptr;
  obs::AttributionEngine* attribution_ = nullptr;
  obs::CalibrationTracker* calibration_ = nullptr;
  int in_flight_ = 0;
  std::array<int, models::kModelCount> in_flight_requests_{};
  std::vector<cluster::Batch> batch_scratch_;  // reused across dispatches
};

}  // namespace paldia::core
