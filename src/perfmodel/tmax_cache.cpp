#include "src/perfmodel/tmax_cache.hpp"

namespace paldia::perfmodel {

SharingDecision TmaxCache::best_split(const YOptimizer& optimizer,
                                      models::ModelId model, hw::NodeType node,
                                      const WorkloadPoint& point) {
  if (point.n_requests <= 0) return optimizer.best_split(point);
  auto& rows = rows_[static_cast<std::size_t>(model)];
  const auto node_at = static_cast<std::size_t>(hw::node_index(node));
  if (node_at >= rows.size()) rows.resize(node_at + 1);
  Row& row = rows[node_at];
  const auto n_at = static_cast<std::size_t>(point.n_requests);
  if (n_at >= row.size()) row.resize(n_at + 1);
  Slot& slot = row[n_at];

  SharingDecision decision;
  if (slot.y >= 0) {
    ++hits_;
    decision.y = slot.y;
    decision.t_max_ms = slot.t_max_ms;
    decision.feasible = decision.t_max_ms <= point.slo_ms;
    return decision;
  }
  ++misses_;
  decision = optimizer.best_split(point);
  slot = Slot{decision.y, decision.t_max_ms};
  return decision;
}

std::size_t TmaxCache::size() const {
  std::size_t swept = 0;
  for (const auto& rows : rows_) {
    for (const Row& row : rows) {
      for (const Slot& slot : row) swept += slot.y >= 0 ? 1 : 0;
    }
  }
  return swept;
}

}  // namespace paldia::perfmodel
