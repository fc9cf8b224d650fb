// Precomputed pruning structures for the hardware-selection sweep.
//
// Algorithm 1 walks the whole catalog every monitor tick; on a generated
// fleet-scale catalog (catalog_gen.hpp) that linear sweep becomes the
// scheduler's hot path. Everything here is derived once, at construction,
// from the immutable (zoo, catalog, profile) triple:
//
//  * capability bitmasks — per model, which nodes can serve a single request
//    within the SLO (the pool filter as one AND per 64 nodes instead of a
//    profile lookup per node per tick);
//  * twin groups — nodes whose profile-relevant silicon is identical
//    (regional price variants: same speed/bandwidth for GPUs, same
//    vcpus/per-core speed for CPUs). HardwareSelection::evaluate() depends
//    on the node only through those parameters, so a twin's evaluation can
//    be copied from its representative verbatim. This is the provably-exact
//    form of dominance pruning: a twin at a higher price can never be
//    chosen over its representative, and its metrics are identical;
//  * cost ranks/buckets — each node's position in the catalog's cached
//    cost-ascending order and its price-band bucket, so the winner scan can
//    walk buckets cheapest-first and stop at the first in-band winner.
//
// None of this changes any choice: the pruned sweep must match the linear
// sweep bit-for-bit (a randomized equivalence test sweeps generated
// catalogs, and fleet_frontier's self-check compares whole fleets).
#pragma once

#include <cstdint>
#include <vector>

#include "src/hw/catalog.hpp"
#include "src/models/profile.hpp"
#include "src/models/zoo.hpp"

namespace paldia::core {

class SelectionIndex {
 public:
  SelectionIndex() = default;
  SelectionIndex(const models::Zoo& zoo, const hw::Catalog& catalog,
                 const models::ProfileTable& profile);

  /// True when the node's single-request latency fits the model's SLO —
  /// identical to the linear pool filter's predicate.
  bool capable(models::ModelId model, hw::NodeType node) const {
    const auto bit = static_cast<std::size_t>(hw::node_index(node));
    return (capable_[static_cast<std::size_t>(model) * words_ + bit / 64] >>
            (bit % 64)) &
           1u;
  }

  /// Lowest catalog index whose profile-relevant silicon is identical to
  /// `node` (possibly node itself). Twins share evaluate() results exactly.
  hw::NodeType twin_representative(hw::NodeType node) const {
    return hw::make_node_type(twin_rep_[static_cast<std::size_t>(hw::node_index(node))]);
  }

  /// Position of the node in Catalog::by_cost_ascending().
  int cost_rank(hw::NodeType node) const {
    return cost_rank_[static_cast<std::size_t>(hw::node_index(node))];
  }

  /// Index into Catalog::cost_buckets() for the node's price band.
  int cost_bucket(hw::NodeType node) const {
    return bucket_of_rank_[static_cast<std::size_t>(cost_rank(node))];
  }

  /// Number of nodes that are a twin of a cheaper node (reporting only).
  int twin_count() const { return twin_count_; }

  bool empty() const { return capable_.empty(); }

 private:
  std::size_t words_ = 0;             // 64-bit words per model mask
  std::vector<std::uint64_t> capable_;  // [model * words_ + word]
  std::vector<int> twin_rep_;           // catalog index -> representative index
  std::vector<int> cost_rank_;          // catalog index -> cost position
  std::vector<int> bucket_of_rank_;     // cost position -> bucket id
  int twin_count_ = 0;
};

}  // namespace paldia::core
