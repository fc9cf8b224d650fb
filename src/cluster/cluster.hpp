// The 6-worker heterogeneous testbed: one node of each Table II type, with
// procurement, hold-time cost accounting and failure injection hooks.
//
// "Cost" follows the paper's methodology (Section V): the total weighted
// cost of a scheme is the time spent *holding* each node type multiplied by
// its hourly price. Holding starts when procurement completes and ends at
// release.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "src/cluster/node.hpp"
#include "src/cluster/provisioner.hpp"
#include "src/common/rng.hpp"
#include "src/hw/catalog.hpp"

namespace paldia::cluster {

struct ClusterConfig {
  NodeConfig node;
  ProvisionerConfig provisioner;
};

class Cluster {
 public:
  Cluster(sim::Simulator& simulator, Rng rng,
          const models::Zoo& zoo = models::Zoo::instance(),
          const hw::Catalog& catalog = hw::Catalog::instance(),
          ClusterConfig config = {});
  // Nodes point at profile_.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Node& node(hw::NodeType type);
  const Node& node(hw::NodeType type) const;

  /// Begin holding the node type. on_ready fires after the procurement
  /// delay (immediately when already held or still being procured by an
  /// earlier call — the callback then joins the pending procurement).
  void acquire(hw::NodeType type, std::function<void(Node&)> on_ready);

  /// Mark the node type held right now, skipping procurement. Used to give
  /// every scheme a warm initial node at t = 0 (the paper's experiments
  /// start from a provisioned cluster).
  void acquire_immediately(hw::NodeType type);

  /// Stop holding (and paying for) the node type.
  void release(hw::NodeType type);

  bool held(hw::NodeType type) const;
  std::vector<hw::NodeType> held_types() const;

  /// Accumulated cost so far, including open hold intervals.
  Dollars total_cost() const;

  /// Held duration per node type so far, ms.
  DurationMs held_time_ms(hw::NodeType type) const;

  /// Failure injection passthrough (Fig. 13b).
  void fail_node(hw::NodeType type);
  void recover_node(hw::NodeType type);

  std::uint64_t total_cold_starts() const;

  const hw::Catalog& catalog() const { return *catalog_; }
  const ClusterConfig& config() const { return config_; }
  sim::Simulator& simulator() { return *simulator_; }

 private:
  struct Holding {
    bool held = false;
    bool procuring = false;
    TimeMs held_since_ms = 0.0;
    DurationMs accumulated_ms = 0.0;
    std::vector<std::function<void(Node&)>> waiters;
  };

  sim::Simulator* simulator_;
  const hw::Catalog* catalog_;
  models::ProfileTable profile_;  // one table shared by every node
  ClusterConfig config_;
  Provisioner provisioner_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Holding> holdings_;
};

}  // namespace paldia::cluster
