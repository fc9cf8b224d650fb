#include "src/perfmodel/y_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace paldia::perfmodel {

namespace {
constexpr int kMaxProbes = 256;  // probe budget over the optimal range
}  // namespace

SharingDecision YOptimizer::best_split(const WorkloadPoint& point) const {
  SharingDecision best;
  if (point.n_requests <= 0) {
    best.y = 0;
    best.t_max_ms = 0.0;
    best.feasible = true;
    return best;
  }

  // Assemble the candidate y values.
  std::vector<int> candidates;
  candidates.push_back(0);
  candidates.push_back(point.n_requests);
  if (const auto range = model_.optimal_range(point)) {
    const auto [lo, hi] = *range;
    const int span = hi - lo + 1;
    const int stride = std::max(1, (span + kMaxProbes - 1) / kMaxProbes);
    for (int y = lo; y <= hi; y += stride) candidates.push_back(y);
    if ((hi - lo) % stride != 0) candidates.push_back(hi);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  std::vector<double> t_max(candidates.size());
  auto evaluate = [&](std::size_t i) {
    t_max[i] = model_.t_max_ms(point, candidates[i]);
  };
  // Safe to run even when best_split is itself inside a pool task (a
  // repetition or scheme running on the same pool): parallel_for is
  // nestable — the caller help-drains its own task group instead of
  // blocking on a global counter. The >= 64 gate only skips dispatch
  // overhead on tiny sweeps.
  if (pool_ != nullptr && candidates.size() >= 64) {
    pool_->parallel_for(candidates.size(), evaluate);
  } else {
    for (std::size_t i = 0; i < candidates.size(); ++i) evaluate(i);
  }

  // Min-reduction; ties break towards the smaller y (less queueing).
  std::size_t best_index = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    if (t_max[i] < t_max[best_index]) best_index = i;
  }
  best.y = candidates[best_index];
  best.t_max_ms = t_max[best_index];
  best.feasible = best.t_max_ms <= point.slo_ms;
  return best;
}

}  // namespace paldia::perfmodel
