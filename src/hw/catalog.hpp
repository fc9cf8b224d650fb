// The node-type catalog (paper Table II by default) and lookups over it.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "src/hw/node_spec.hpp"

namespace paldia::hw {

/// Immutable catalog of node types. The default holds the six Table II rows;
/// generated catalogs (catalog_gen.hpp) can hold hundreds. A singleton view
/// exists for the default — specs never change during a run; tests and the
/// fleet paths build their own Catalog.
///
/// All orderings are computed once at construction: by_cost_ascending() and
/// gpus_by_capability_ascending() sit inside the per-tick selection sweep, so
/// they return cached references rather than re-sorting per call.
class Catalog {
 public:
  /// Build the default Table II catalog.
  Catalog();

  /// Build from explicit specs (test seam and generated catalogs). specs[i]
  /// corresponds to NodeType(i).
  explicit Catalog(std::vector<NodeSpec> specs);

  const NodeSpec& spec(NodeType type) const;
  std::span<const NodeSpec> all() const { return specs_; }
  std::size_t size() const { return specs_.size(); }

  /// Instance name of a node type. Unlike node_type_name() this works for
  /// generated catalogs, whose names live in the specs.
  std::string_view name(NodeType type) const { return spec(type).instance; }

  /// All node types ordered by ascending hourly price (Algorithm 1 iterates
  /// the candidate pool cheapest-first). Ties break on catalog index so the
  /// order is deterministic for generated catalogs.
  const std::vector<NodeType>& by_cost_ascending() const { return cost_ascending_; }

  /// GPU-equipped node types ordered by ascending compute capability.
  /// Ties break on catalog index.
  const std::vector<NodeType>& gpus_by_capability_ascending() const {
    return gpus_by_capability_;
  }

  /// The most performant GPU node (highest speed) — the "(P)" baselines pin
  /// this. nullopt on a CPU-only catalog; callers degrade to CPU selection.
  std::optional<NodeType> most_performant_gpu() const { return most_performant_gpu_; }

  static const Catalog& instance();

 private:
  void build_indexes();

  std::vector<NodeSpec> specs_;
  std::vector<NodeType> cost_ascending_;
  std::vector<NodeType> gpus_by_capability_;
  std::optional<NodeType> most_performant_gpu_;
};

}  // namespace paldia::hw
