// Request Batching (Section IV-B): flexible batch sizes with an upper bound
// per (hardware, workload), and a dispatch-now rule that caps how long the
// oldest request may wait for its batch to fill — batch formation delay must
// never consume the SLO by itself.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "src/cluster/request.hpp"
#include "src/common/units.hpp"
#include "src/models/model_spec.hpp"

namespace paldia::obs {
class Tracer;
}  // namespace paldia::obs

namespace paldia::core {

struct BatcherConfig {
  /// Dispatch a partial batch once the oldest pending request has waited
  /// this long (SLO/4 with the paper's 200 ms SLO).
  DurationMs max_wait_ms = 50.0;
};

class Batcher {
 public:
  explicit Batcher(BatcherConfig config = {}) : config_(config) {}

  /// Should this model's queue be dispatched now? True when a full batch is
  /// available or the oldest request has aged out.
  bool should_dispatch(int pending, int max_batch, DurationMs oldest_age_ms) const;

  /// Returned by first_dispatch_slot when should_dispatch never holds.
  static constexpr std::int64_t kNoSlot = std::numeric_limits<std::int64_t>::max();

  /// The smallest k >= first_slot such that should_dispatch holds at
  /// now = k * period_ms, for a queue ordered by arrival whose oldest
  /// request arrives at `oldest_arrival_ms` and whose target-th request
  /// arrives at `target_arrival_ms` (kTimeNever when the queue holds fewer
  /// requests than the target). Both conditions use should_dispatch's own
  /// expressions: the target-th request has arrived (`arrival <= now`), or
  /// the oldest has arrived and waited (`now - oldest >= max_wait_ms`).
  /// kNoSlot when neither ever holds.
  std::int64_t first_dispatch_slot(std::int64_t first_slot, DurationMs period_ms,
                                   TimeMs oldest_arrival_ms,
                                   TimeMs target_arrival_ms) const;

  /// Chunk requests into batches of at most batch_size (the last one may be
  /// smaller — flexible batching). Each batch carves its requests into a
  /// pooled block from `arena` with one bulk append; the appended batches
  /// land on `out`. No-op (and no tracer counts) when count == 0.
  void chunk_into(const cluster::Request* requests, std::size_t count,
                  int batch_size, TimeMs now, cluster::IdAllocator& ids,
                  cluster::RequestArena& arena,
                  std::vector<cluster::Batch>* out) const;

  /// Convenience wrapper over chunk_into: batches draw their blocks from
  /// the same arena that backs `requests` (the block is released on
  /// return, recycling its slab).
  std::vector<cluster::Batch> chunk(cluster::RequestBlock requests,
                                    int batch_size, TimeMs now,
                                    cluster::IdAllocator& ids) const;

  const BatcherConfig& config() const { return config_; }

  /// Observability hook (null = tracing disabled; single-branch cost).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  BatcherConfig config_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace paldia::core
