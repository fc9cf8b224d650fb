// The parallel y-sweep of Algorithm 1: probe candidate y values from the
// optimal range (plus the boundary splits) in parallel and pick the one
// minimising T_max. The paper reports < 3 ms wall-clock for this step
// (Section III); bench/micro_perf.cpp checks ours.
#pragma once

#include "src/common/thread_pool.hpp"
#include "src/perfmodel/tmax_model.hpp"

namespace paldia::perfmodel {

struct SharingDecision {
  int y = 0;                  // requests to queue (time share)
  DurationMs t_max_ms = 0.0;  // predicted worst-case completion
  bool feasible = false;      // t_max <= SLO
};

class YOptimizer {
 public:
  /// pool may be null: the sweep then runs on the calling thread (results
  /// are identical; the pool only changes wall-clock time).
  explicit YOptimizer(TmaxModel model, ThreadPool* pool = nullptr)
      : model_(model), pool_(pool) {}

  /// Best split for the operating point. Candidates: every y in the optimal
  /// range (strided down to <= 256 points), plus y = N (pure time
  /// sharing) and y = 0 (pure spatial — covers the unsaturated case where
  /// the optimal range is empty). Deterministic regardless of the pool.
  SharingDecision best_split(const WorkloadPoint& point) const;

 private:
  TmaxModel model_;
  ThreadPool* pool_;
};

}  // namespace paldia::perfmodel
