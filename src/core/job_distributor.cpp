#include "src/core/job_distributor.hpp"

#include <algorithm>
#include <cassert>

#include "src/obs/attribution.hpp"
#include "src/obs/calibration.hpp"
#include "src/obs/tracer.hpp"

namespace paldia::core {

int JobDistributor::dispatch(cluster::Node& node, const SplitPlan& plan,
                             cluster::RequestBlock requests, TimeMs now) {
  if (requests.empty()) return 0;
  const int total = static_cast<int>(requests.size());
  const int spatial =
      plan.use_cpu ? 0 : std::clamp(plan.spatial_requests, 0, total);
  const int temporal = total - spatial;
  cluster::RequestArena& arena = *requests.arena();

  // Carve the two portions straight out of the block — no intermediate
  // copies. Each portion is fully chunked (batch ids assigned in order)
  // before its batches are submitted, matching the original two-pass shape.
  int batches = 0;
  batch_scratch_.clear();
  batcher_->chunk_into(requests.data(), static_cast<std::size_t>(spatial),
                       plan.batch_size, now, *ids_, arena, &batch_scratch_);
  for (auto& batch : batch_scratch_) {
    submit_batch(node, std::move(batch), cluster::ShareMode::kSpatial, spatial,
                 temporal);
    ++batches;
  }
  const auto rest_mode =
      plan.use_cpu ? cluster::ShareMode::kCpu : cluster::ShareMode::kTemporal;
  batch_scratch_.clear();
  batcher_->chunk_into(requests.data() + spatial,
                       static_cast<std::size_t>(temporal), plan.batch_size, now,
                       *ids_, arena, &batch_scratch_);
  for (auto& batch : batch_scratch_) {
    submit_batch(node, std::move(batch), rest_mode, spatial, temporal);
    ++batches;
  }
  batch_scratch_.clear();
  return batches;
}

void JobDistributor::submit_batch(cluster::Node& node, cluster::Batch batch,
                                  cluster::ShareMode mode, int spatial,
                                  int temporal) {
  ++in_flight_;
  in_flight_requests_[static_cast<std::size_t>(batch.model)] += batch.size();
  cluster::ExecRequest exec;
  exec.batch = batch.id;
  exec.model = batch.model;
  exec.batch_size = batch.size();
  exec.mode = mode;
  // The node reference outlives the run but the callback may fire after a
  // reconfiguration; tag events with the node *type* captured now.
  const hw::NodeType node_type = node.type();
  auto on_complete = [this, batch = std::move(batch), mode, spatial, temporal,
                      node_type](const cluster::ExecutionReport& report) mutable {
    --in_flight_;
    in_flight_requests_[static_cast<std::size_t>(batch.model)] -= batch.size();
    if (report.failed) {
      if (tracer_ != nullptr) {
        tracer_->count("failed_batches");
        tracer_->instant("batch_failed", report.end_ms, node_type,
                         static_cast<double>(batch.size()));
        for (const auto& request : batch.requests) {
          tracer_->request_requeued(request.id.value, batch.model, report.end_ms,
                                    node_type);
        }
      }
      if (attribution_ != nullptr) {
        for (const auto& request : batch.requests) {
          attribution_->on_requeued(request.id.value);
        }
      }
      if (on_requeue_) on_requeue_(batch.model, std::move(batch.requests));
      return;
    }
    if (calibration_ != nullptr) {
      calibration_->observe_batch(static_cast<int>(node_type), report.submit_ms,
                                  report.end_ms);
    }
    if (tracer_ != nullptr) {
      tracer_->record_batch(batch.id.value, batch.model,
                            node_type, mode, batch.size(), report.submit_ms,
                            report.start_ms, report.end_ms, report.solo_ms,
                            report.cold_start_ms);
      const DurationMs interference = std::max(0.0, report.interference_ms());
      for (const auto& request : batch.requests) {
        tracer_->record_request_lifecycle(
            request.id.value, batch.model, node_type, mode, batch.size(), spatial,
            temporal, request.arrival_ms, report.submit_ms, report.start_ms,
            report.end_ms, report.solo_ms, interference, report.cold_start_ms);
      }
      if (report.cold_start_ms > 0.0) tracer_->count("cold_start_batches");
    }
    for (const auto& request : batch.requests) {
      on_request_complete_(request, report, node_type);
    }
  };
  // The capture block (this + a 48-byte Batch + four scalars) must stay
  // inside BatchCompletionFn's inline budget — no per-dispatch allocation.
  static_assert(sizeof(on_complete) <= 96);
  exec.on_complete = std::move(on_complete);
  node.execute(std::move(exec));
}

}  // namespace paldia::core
