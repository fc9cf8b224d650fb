// Generated device catalogs: fleet-scale heterogeneity beyond Table II.
//
// Production clouds expose dozens of device generations, not six rows; this
// generator produces NodeSpec entries across synthetic GPU/CPU architecture
// families (the registry-of-device-specs idiom from IREE's HAL device
// libraries), with prices following a capability-correlated law plus
// deterministic regional noise. The default Catalog stays Table II — the
// generator only runs when a driver asks for it (--catalog gen:...), so
// every existing export is untouched.
//
// Determinism contract: generate_specs(config) is a pure function of the
// config (all draws come from Rng forks of config.seed), so two processes
// with the same spec string build byte-identical catalogs — the CI byte
// comparisons of generated-catalog runs depend on this.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/hw/catalog.hpp"
#include "src/hw/node_spec.hpp"

namespace paldia::hw {

struct CatalogGenConfig {
  int node_count = 64;         // clamped to [2, 256]
  double gpu_fraction = 0.6;   // share of GPU-equipped node types
  std::uint64_t seed = 42;
  double price_noise = 0.10;   // lognormal sigma applied to the price law
  /// Fraction of nodes emitted as regional price variants of an earlier node
  /// (same silicon, different price): "≥ price, ≤ capability" rows that
  /// the cheapest-within-band rule never prefers over their cheaper twin.
  double twin_fraction = 0.20;
};

/// Generate node specs per the config. Always emits at least one CPU node so
/// a catalog can serve the CPU short-circuit; GPU count follows gpu_fraction.
std::vector<NodeSpec> generate_specs(const CatalogGenConfig& config);

/// Convenience: generate_specs wrapped into a Catalog.
Catalog generate_catalog(const CatalogGenConfig& config);

/// Parse a --catalog spec string:
///   "table2" (or "")                  -> nullopt: use the default catalog
///   "gen:<count>"                     -> generated, default seed
///   "gen:<count>:seed=<n>"            -> generated with explicit seed
///   "gen:<count>:seed=<n>:gpu=<frac>" -> ... and GPU fraction
/// Options after the count may appear in any order. On a malformed spec,
/// returns nullopt and sets *error (if non-null) to a diagnostic.
std::optional<CatalogGenConfig> parse_catalog_spec(std::string_view spec,
                                                   std::string* error = nullptr);

}  // namespace paldia::hw
