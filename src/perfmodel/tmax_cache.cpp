#include "src/perfmodel/tmax_cache.hpp"

namespace paldia::perfmodel {

std::size_t TmaxCache::KeyHash::operator()(const Key& key) const {
  // FNV-1a over the packed fields; the key is small enough that quality
  // beyond "spread the low bits" does not matter.
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.model)));
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.node)) << 16);
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.n_requests)));
  return static_cast<std::size_t>(hash);
}

SharingDecision TmaxCache::best_split(const YOptimizer& optimizer,
                                      models::ModelId model, hw::NodeType node,
                                      const WorkloadPoint& point) {
  const Key key{static_cast<int>(model), hw::node_index(node), point.n_requests};
  SharingDecision decision;
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++hits_;
    decision.y = it->second.y;
    decision.t_max_ms = it->second.t_max_ms;
    decision.feasible = decision.t_max_ms <= point.slo_ms;
    return decision;
  }
  ++misses_;
  decision = optimizer.best_split(point);
  entries_.emplace(key, Value{decision.y, decision.t_max_ms});
  return decision;
}

}  // namespace paldia::perfmodel
