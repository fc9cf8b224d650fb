#include "src/cluster/cluster.hpp"

#include <cassert>

namespace paldia::cluster {

Cluster::Cluster(sim::Simulator& simulator, Rng rng, const models::Zoo& zoo,
                 const hw::Catalog& catalog, ClusterConfig config)
    : simulator_(&simulator),
      catalog_(&catalog),
      profile_(catalog),
      config_(config),
      provisioner_(simulator, config.provisioner) {
  const auto count = catalog.all().size();
  nodes_.reserve(count);
  holdings_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    nodes_.push_back(std::make_unique<Node>(simulator, NodeId{static_cast<std::int64_t>(i)},
                                            hw::NodeType(static_cast<int>(i)),
                                            rng.fork(catalog.spec(hw::NodeType(i)).instance),
                                            zoo, profile_, config.node));
  }
}

Node& Cluster::node(hw::NodeType type) { return *nodes_[static_cast<std::size_t>(type)]; }

const Node& Cluster::node(hw::NodeType type) const {
  return *nodes_[static_cast<std::size_t>(type)];
}

void Cluster::acquire(hw::NodeType type, std::function<void(Node&)> on_ready) {
  auto& holding = holdings_[static_cast<std::size_t>(type)];
  if (holding.held) {
    if (on_ready) on_ready(node(type));
    return;
  }
  if (on_ready) holding.waiters.push_back(std::move(on_ready));
  if (holding.procuring) return;
  holding.procuring = true;
  provisioner_.procure(
      type,
      [this](hw::NodeType ready_type) {
        auto& h = holdings_[static_cast<std::size_t>(ready_type)];
        h.procuring = false;
        if (h.held) return;  // raced with another path; already held
        h.held = true;
        h.held_since_ms = simulator_->now();
        auto waiters = std::move(h.waiters);
        h.waiters.clear();
        for (auto& waiter : waiters) waiter(node(ready_type));
      });
}

void Cluster::acquire_immediately(hw::NodeType type) {
  auto& holding = holdings_[static_cast<std::size_t>(type)];
  if (holding.held) return;
  holding.held = true;
  holding.held_since_ms = simulator_->now();
  auto waiters = std::move(holding.waiters);
  holding.waiters.clear();
  for (auto& waiter : waiters) waiter(node(type));
}

void Cluster::release(hw::NodeType type) {
  auto& holding = holdings_[static_cast<std::size_t>(type)];
  if (!holding.held) return;
  holding.held = false;
  holding.accumulated_ms += simulator_->now() - holding.held_since_ms;
}

bool Cluster::held(hw::NodeType type) const {
  return holdings_[static_cast<std::size_t>(type)].held;
}

std::vector<hw::NodeType> Cluster::held_types() const {
  std::vector<hw::NodeType> types;
  for (std::size_t i = 0; i < holdings_.size(); ++i) {
    if (holdings_[i].held) types.push_back(hw::NodeType(static_cast<int>(i)));
  }
  return types;
}

DurationMs Cluster::held_time_ms(hw::NodeType type) const {
  const auto& holding = holdings_[static_cast<std::size_t>(type)];
  DurationMs total = holding.accumulated_ms;
  if (holding.held) total += simulator_->now() - holding.held_since_ms;
  return total;
}

Dollars Cluster::total_cost() const {
  Dollars total = 0.0;
  for (std::size_t i = 0; i < holdings_.size(); ++i) {
    const auto type = hw::NodeType(static_cast<int>(i));
    total += catalog_->spec(type).price_per_hour * (held_time_ms(type) / kMsPerHour);
  }
  return total;
}

void Cluster::fail_node(hw::NodeType type) { node(type).fail(); }

void Cluster::recover_node(hw::NodeType type) { node(type).recover(); }

std::uint64_t Cluster::total_cold_starts() const {
  std::uint64_t total = 0;
  for (const auto& node : nodes_) total += node->cold_starts();
  return total;
}

}  // namespace paldia::cluster
