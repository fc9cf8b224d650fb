// Reference model for ProfileTable::max_batch_within. The query
// binary-searches the Solo(bs) envelope, which is exact only while solo_ms
// never decreases in bs. These tests keep the linear prefix scan it
// replaced as the reference and compare the two on Table II and on
// generated catalogs, for every zoo model, at budgets on and next to every
// envelope point. They also pin the per-node CPU constant the table
// precomputes to the bits of the free cpu_solo_ms.
#include "src/models/profile.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/hw/catalog_gen.hpp"
#include "src/models/zoo.hpp"

namespace paldia::models {
namespace {

struct NamedCatalog {
  std::string name;
  hw::Catalog catalog;
};

/// Table II plus generated catalogs of several sizes, seeds and GPU mixes.
std::vector<NamedCatalog> catalogs() {
  std::vector<NamedCatalog> out;
  out.push_back({"table2", hw::Catalog()});
  for (const char* spec : {"gen:8:seed=3", "gen:16", "gen:64:seed=7:gpu=0.3",
                           "gen:128:seed=11:gpu=0.9", "gen:256"}) {
    std::string error;
    const auto config = hw::parse_catalog_spec(spec, &error);
    EXPECT_TRUE(config.has_value()) << spec << ": " << error;
    if (config.has_value()) out.push_back({spec, hw::generate_catalog(*config)});
  }
  return out;
}

/// The linear prefix scan max_batch_within used to be, over
/// solo[bs - 1] = lookup(model, node, bs).solo_ms.
int prefix_scan(const std::vector<DurationMs>& solo, DurationMs budget_ms) {
  int best = 0;
  for (const DurationMs ms : solo) {
    if (!(ms <= budget_ms)) break;
    ++best;
  }
  return best;
}

/// Budgets that can tell a wrong search from a right one: degenerate
/// values, every envelope point, and the doubles on either side of it.
std::vector<DurationMs> probe_budgets(const std::vector<DurationMs>& solo) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<DurationMs> budgets = {0.0, -0.0, -1.0, -kInf, kInf,
                                     std::numeric_limits<double>::quiet_NaN()};
  for (const DurationMs ms : solo) {
    budgets.push_back(ms);
    budgets.push_back(std::nextafter(ms, -kInf));
    budgets.push_back(std::nextafter(ms, kInf));
  }
  return budgets;
}

TEST(ProfileReference, MaxBatchWithinMatchesPrefixScanOnEveryCatalog) {
  const Zoo& zoo = Zoo::instance();
  for (const NamedCatalog& named : catalogs()) {
    const ProfileTable table(named.catalog);
    for (std::size_t n = 0; n < named.catalog.size(); ++n) {
      const hw::NodeType node = hw::make_node_type(static_cast<int>(n));
      for (int m = 0; m < kModelCount; ++m) {
        const ModelSpec& model = zoo.spec(ModelId(m));
        std::vector<DurationMs> solo;
        for (int bs = 1; bs <= model.max_batch; ++bs) {
          solo.push_back(table.lookup(model, node, bs).solo_ms);
        }
        for (std::size_t i = 1; i < solo.size(); ++i) {
          // The precondition of the binary search.
          ASSERT_LE(solo[i - 1], solo[i])
              << named.name << " node " << n << " " << model.name << " bs " << i + 1;
        }
        for (const DurationMs budget : probe_budgets(solo)) {
          ASSERT_EQ(table.max_batch_within(model, node, budget),
                    prefix_scan(solo, budget))
              << named.name << " node " << n << " " << model.name << " budget "
              << budget;
        }
      }
    }
  }
}

TEST(ProfileReference, SoloMsIsLookupsSoloMs) {
  const Zoo& zoo = Zoo::instance();
  for (const NamedCatalog& named : catalogs()) {
    const ProfileTable table(named.catalog);
    for (std::size_t n = 0; n < named.catalog.size(); ++n) {
      const hw::NodeType node = hw::make_node_type(static_cast<int>(n));
      const hw::NodeSpec& spec = named.catalog.spec(node);
      for (int m = 0; m < kModelCount; ++m) {
        const ModelSpec& model = zoo.spec(ModelId(m));
        for (int bs = 1; bs <= model.max_batch; ++bs) {
          const DurationMs solo = table.solo_ms(model, node, bs);
          ASSERT_EQ(solo, table.lookup(model, node, bs).solo_ms);
          // Bit-equal to the free envelopes: the table's precomputed CPU
          // core penalty is the same pow() the free function evaluates.
          ASSERT_EQ(solo, spec.is_gpu() ? gpu_solo_ms(model, *spec.gpu, bs)
                                        : cpu_solo_ms(model, spec.cpu, bs))
              << named.name << " node " << n << " " << model.name << " bs " << bs;
        }
      }
    }
  }
}

}  // namespace
}  // namespace paldia::models
