#include "src/hw/catalog_gen.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

namespace paldia::hw {
namespace {

TEST(CatalogGen, DeterministicInConfig) {
  CatalogGenConfig config;
  config.node_count = 48;
  config.seed = 1234;
  const auto a = generate_specs(config);
  const auto b = generate_specs(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].instance, b[i].instance);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_DOUBLE_EQ(a[i].price_per_hour, b[i].price_per_hour);
    EXPECT_EQ(a[i].family, b[i].family);
  }
}

TEST(CatalogGen, SeedChangesTheCatalog) {
  CatalogGenConfig config;
  config.node_count = 48;
  config.seed = 1;
  const auto a = generate_specs(config);
  config.seed = 2;
  const auto b = generate_specs(config);
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a[i].instance != b[i].instance ||
              a[i].price_per_hour != b[i].price_per_hour;
  }
  EXPECT_TRUE(differs);
}

TEST(CatalogGen, CountClampedAndFirstNodeIsCpu) {
  CatalogGenConfig config;
  config.node_count = 1;  // below the [2, 256] floor
  auto specs = generate_specs(config);
  EXPECT_EQ(specs.size(), 2u);
  config.node_count = 10'000;
  specs = generate_specs(config);
  EXPECT_EQ(specs.size(), 256u);
  // Node 0 is always a CPU node so every catalog can serve Algorithm 1's
  // CPU short-circuit and the CPU-only degrade path.
  EXPECT_FALSE(specs.front().is_gpu());
}

TEST(CatalogGen, GpuFractionRoughlyHonored) {
  CatalogGenConfig config;
  config.node_count = 100;
  config.gpu_fraction = 0.6;
  const auto specs = generate_specs(config);
  int gpus = 0;
  for (const auto& spec : specs) gpus += spec.is_gpu() ? 1 : 0;
  EXPECT_GE(gpus, 50);
  EXPECT_LE(gpus, 70);
  for (const auto& spec : specs) {
    EXPECT_EQ(spec.is_gpu(), spec.gpu.has_value());
    EXPECT_GT(spec.price_per_hour, 0.0);
    EXPECT_FALSE(spec.family.empty());
    EXPECT_GT(spec.cpu.vcpus, 0);
  }
}

TEST(CatalogGen, TwinsShareSiliconAtHigherPrice) {
  CatalogGenConfig config;
  config.node_count = 96;
  config.twin_fraction = 0.4;
  const auto specs = generate_specs(config);
  std::map<std::string, const NodeSpec*> by_name;
  for (const auto& spec : specs) by_name[spec.instance] = &spec;
  // Generated regional variants carry a ".r<i>" suffix; each must reference
  // an existing base node, share its profile-relevant silicon exactly, and
  // never undercut its price (the "≥ price, ≤ capability" rows dominance
  // pruning exists for). Quantized bins can also collide between
  // independently drawn nodes — those are twins to the pruner too, but
  // carry no price ordering.
  int twins = 0;
  for (const auto& spec : specs) {
    const auto dot_r = spec.instance.rfind(".r");
    if (dot_r == std::string::npos) continue;
    const auto base_it = by_name.find(spec.instance.substr(0, dot_r));
    if (base_it == by_name.end()) continue;  // nested twin: base is a twin
    const NodeSpec& base = *base_it->second;
    ++twins;
    ASSERT_EQ(spec.is_gpu(), base.is_gpu());
    if (spec.is_gpu()) {
      EXPECT_DOUBLE_EQ(spec.gpu->speed, base.gpu->speed);
      EXPECT_DOUBLE_EQ(spec.gpu->mem_bandwidth_gbps, base.gpu->mem_bandwidth_gbps);
    } else {
      EXPECT_EQ(spec.cpu.vcpus, base.cpu.vcpus);
      EXPECT_DOUBLE_EQ(spec.cpu.per_core_speed, base.cpu.per_core_speed);
    }
    EXPECT_GE(spec.price_per_hour, base.price_per_hour) << spec.instance;
  }
  EXPECT_GT(twins, 0) << "twin_fraction=0.4 produced no twin nodes";
}

TEST(CatalogGen, GeneratedCatalogIndexesWork) {
  CatalogGenConfig config;
  config.node_count = 32;
  const Catalog catalog = generate_catalog(config);
  EXPECT_EQ(catalog.size(), 32u);
  EXPECT_EQ(catalog.by_cost_ascending().size(), 32u);
  for (std::size_t i = 1; i < catalog.by_cost_ascending().size(); ++i) {
    EXPECT_LE(catalog.spec(catalog.by_cost_ascending()[i - 1]).price_per_hour,
              catalog.spec(catalog.by_cost_ascending()[i]).price_per_hour);
  }
  // Instance names are unique — twin variants carry a region suffix.
  std::set<std::string> names;
  for (const auto& spec : catalog.all()) names.insert(spec.instance);
  EXPECT_EQ(names.size(), catalog.size());
  ASSERT_TRUE(catalog.most_performant_gpu().has_value());
  const auto top = *catalog.most_performant_gpu();
  for (hw::NodeType gpu : catalog.gpus_by_capability_ascending()) {
    EXPECT_LE(catalog.spec(gpu).gpu->speed, catalog.spec(top).gpu->speed);
  }
}

TEST(CatalogGen, ParseCatalogSpec) {
  std::string error;
  EXPECT_FALSE(parse_catalog_spec("table2", &error).has_value());
  EXPECT_TRUE(error.empty());
  EXPECT_FALSE(parse_catalog_spec("", &error).has_value());
  EXPECT_TRUE(error.empty());

  auto config = parse_catalog_spec("gen:64", &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->node_count, 64);

  config = parse_catalog_spec("gen:32:seed=9:gpu=0.8", &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->node_count, 32);
  EXPECT_EQ(config->seed, 9u);
  EXPECT_DOUBLE_EQ(config->gpu_fraction, 0.8);

  config = parse_catalog_spec("gen:16:twins=0.5:noise=0.2:seed=3", &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_DOUBLE_EQ(config->twin_fraction, 0.5);
  EXPECT_DOUBLE_EQ(config->price_noise, 0.2);

  EXPECT_FALSE(parse_catalog_spec("gen:", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_catalog_spec("gen:abc", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_catalog_spec("gen:64:bogus=1", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_catalog_spec("flux:64", &error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace paldia::hw
