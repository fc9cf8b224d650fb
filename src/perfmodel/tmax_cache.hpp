// Memoization of the Algorithm 1 y-sweep (Eq. 1, Section III).
//
// Every monitor tick re-runs HardwareSelection's candidate sweep, and every
// dispatch round re-runs plan_dispatch's split sweep — both bottom out in
// YOptimizer::best_split. The key is (model, node, N), and it is exact:
// the sweep reads N, the batch size, Solo, FBR and compute, and every caller
// derives the last four from (model, node, N) through the immutable profile
// table (batch size = min(max_batch, max(1, N))). The SLO budget never
// changes the sweep's (y, t_max); it only decides feasibility, which every
// lookup recomputes against the caller's budget, so the stored value keeps
// only (y, t_max). TmaxModel is deterministic math, so a hit returns exactly
// what a fresh sweep would; the randomized reference suite
// (tests/perfmodel/tmax_cache_test.cpp) checks this bit for bit.
//
// There is no invalidation rule because there is nothing to invalidate: the
// profile table and model/catalog specs are immutable for the lifetime of
// the owning policy, and each policy owns its own cache.
//
// Storage is dense: one row per (node, model), indexed by N, so a lookup is
// two array indexings instead of a hash. A row grows to the largest N
// looked up on it (16 bytes per N; the gateway already holds that backlog at
// 24 bytes per request), and y = -1 marks a slot not yet swept. N <= 0 has
// nothing to sweep: it is answered by the optimizer and not counted.
//
// Not thread-safe, by contract: a cache is called only from the thread that
// runs its policy's simulation (one policy per repetition or per fleet
// endpoint). YOptimizer's pooled probes compute t_max values and never
// touch the cache.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/hw/node_spec.hpp"
#include "src/models/model_spec.hpp"
#include "src/perfmodel/y_optimizer.hpp"

namespace paldia::perfmodel {

struct TmaxCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class TmaxCache {
 public:
  TmaxCache() = default;
  TmaxCache(const TmaxCache&) = delete;
  TmaxCache& operator=(const TmaxCache&) = delete;

  /// optimizer.best_split(point) through the cache, keyed on
  /// (model, node, point.n_requests): the memoized (y, t_max) when the key
  /// is present, computed and inserted otherwise. Feasibility is always
  /// re-derived from point.slo_ms, never stored.
  SharingDecision best_split(const YOptimizer& optimizer, models::ModelId model,
                             hw::NodeType node, const WorkloadPoint& point);

  TmaxCacheStats stats() const { return {hits_, misses_}; }
  /// Distinct (model, node, N) keys swept so far (counts the slots).
  std::size_t size() const;

 private:
  struct Slot {
    int y = -1;  // -1: not yet swept
    DurationMs t_max_ms = 0.0;
  };
  using Row = std::vector<Slot>;  // indexed by N

  /// rows_[model][node]; each model's node list grows to the largest node
  /// index looked up for it.
  std::array<std::vector<Row>, models::kModelCount> rows_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace paldia::perfmodel
