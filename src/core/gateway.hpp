// The Gateway (paper component 1): the entry point of user requests. One
// FIFO per model; trace epochs are injected as counts and spread uniformly
// inside the epoch. Tracks trailing arrival rates and feeds the demand
// predictors.
//
// Storage is allocation-free in the steady state: per-model queues are
// RequestRings over recycled buffers, take() hands back a pooled
// RequestBlock from the RequestArena, and per_model_ is a dense vector
// indexed by ModelId (the id space is small and known).
#pragma once

#include <memory>
#include <vector>

#include "src/cluster/request.hpp"
#include "src/cluster/request_pool.hpp"
#include "src/common/rng.hpp"
#include "src/predictor/ewma.hpp"
#include "src/predictor/window.hpp"

namespace paldia::obs {
class Tracer;
}  // namespace paldia::obs

namespace paldia::core {

class Gateway {
 public:
  /// `arena` supplies take()'s pooled blocks; when null (tests, benchmarks)
  /// the gateway owns a private always-pooling arena. `endpoint_tag` lands
  /// in the high bits of every request id this gateway mints (see
  /// cluster::IdAllocator), keeping ids globally unique across a fleet's
  /// gateways; tag 0 emits the classic single-gateway ids unchanged.
  explicit Gateway(Rng rng, cluster::RequestArena* arena = nullptr,
                   int endpoint_tag = 0);

  /// Observability hook (null = tracing disabled; single-branch cost).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  void add_workload(models::ModelId model);

  /// Inject `count` arrivals spread uniformly over [epoch_start,
  /// epoch_start + epoch_ms). Requests become visible to take() once their
  /// arrival time passes.
  void inject(models::ModelId model, int count, TimeMs epoch_start,
              DurationMs epoch_ms);

  /// Re-queue requests (node failure path); arrival times are preserved.
  void requeue(models::ModelId model, cluster::RequestBlock requests);

  /// Pop up to max_count requests whose arrival time is <= now, oldest
  /// first, into a pooled block.
  cluster::RequestBlock take(models::ModelId model, int max_count, TimeMs now);

  int pending(models::ModelId model, TimeMs now) const;
  int pending_total(models::ModelId model) const;  // including future arrivals

  /// Age of the oldest pending request, 0 when none.
  DurationMs oldest_age(models::ModelId model, TimeMs now) const;

  /// Arrival time of the index-th queued request, oldest first, counting
  /// requests that have not arrived yet; kTimeNever past the queue's end.
  TimeMs queued_arrival(models::ModelId model, std::size_t index) const;

  /// Trailing 1 s arrival rate.
  Rps observed_rate(models::ModelId model, TimeMs now) const;

  predictor::EwmaPredictor& predictor(models::ModelId model);

  const std::vector<models::ModelId>& workloads() const { return workloads_; }

 private:
  struct PerModel {
    cluster::RequestRing queue;  // sorted by arrival
    predictor::ArrivalWindow window{1000.0};
    predictor::EwmaPredictor predictor;
    bool registered = false;  // add_workload() seen for this ModelId
  };

  PerModel& state(models::ModelId model);
  const PerModel& state(models::ModelId model) const;

  Rng rng_;
  obs::Tracer* tracer_ = nullptr;
  cluster::IdAllocator ids_;
  std::vector<models::ModelId> workloads_;
  std::vector<PerModel> per_model_;  // dense, indexed by ModelId
  std::vector<double> offsets_scratch_;
  std::unique_ptr<cluster::RequestArena> owned_arena_;
  cluster::RequestArena* arena_;
};

}  // namespace paldia::core
