// Unit tests for the core::Fleet coordinator: catalog slicing, the
// deterministic splitmix64 request router, endpoint slices, and workload
// splitting (request conservation across per-endpoint sub-traces). The
// end-to-end fleet byte-identity contract lives in the integration suite.
#include "src/core/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/exp/scheme_factory.hpp"
#include "src/hw/catalog_gen.hpp"
#include "src/models/zoo.hpp"
#include "src/sim/simulator.hpp"
#include "src/trace/generators.hpp"

namespace paldia::core {
namespace {

hw::Catalog generated(int nodes) {
  return hw::generate_catalog({.node_count = nodes, .seed = 7});
}

Fleet::PolicyFactory paldia_factory(const models::Zoo& zoo) {
  return [&zoo](int, const hw::Catalog& slice,
                const models::ProfileTable& profile) {
    exp::SchemeFactory factory(zoo, slice, profile);
    return factory.make(exp::SchemeId::kPaldia);
  };
}

TEST(SliceCatalog, SlicesAreDisjointSortedAndBounded) {
  const hw::Catalog catalog = generated(64);
  const auto slices = slice_catalog(catalog, 7);
  ASSERT_EQ(slices.size(), 7u);
  std::set<int> seen;
  for (const auto& slice : slices) {
    ASSERT_FALSE(slice.empty());
    ASSERT_LE(static_cast<int>(slice.size()), hw::kNodeTypeCount);
    for (std::size_t i = 0; i < slice.size(); ++i) {
      EXPECT_GE(slice[i], 0);
      EXPECT_LT(slice[i], static_cast<int>(catalog.size()));
      if (i > 0) EXPECT_LT(slice[i - 1], slice[i]);  // sorted, no dupes
      EXPECT_TRUE(seen.insert(slice[i]).second) << "node dealt twice";
    }
  }
}

TEST(SliceCatalog, EverySliceGetsACpuNode) {
  // CPUs are dealt before GPUs and truncation keeps the front of the deal,
  // so as long as the catalog has one CPU per endpoint, every slice can
  // start on a CPU node (the Fleet ctor relies on this for initial_node).
  const hw::Catalog catalog = generated(64);
  int cpu_nodes = 0;
  for (int i = 0; i < static_cast<int>(catalog.size()); ++i) {
    if (!catalog.spec(hw::NodeType(i)).is_gpu()) ++cpu_nodes;
  }
  for (const int endpoints : {1, 2, 4, 8, 16}) {
    if (endpoints > cpu_nodes) continue;
    const auto slices = slice_catalog(catalog, endpoints);
    for (const auto& slice : slices) {
      bool has_cpu = false;
      for (const int node : slice) {
        has_cpu |= !catalog.spec(hw::NodeType(node)).is_gpu();
      }
      EXPECT_TRUE(has_cpu) << "slice without a CPU node at endpoints="
                           << endpoints;
    }
  }
}

TEST(FleetRoute, DeterministicInRangeAndRoughlyBalanced) {
  constexpr int kEndpoints = 8;
  constexpr std::uint64_t kSeed = 0x9a1d1a;
  std::vector<int> hits(kEndpoints, 0);
  for (std::uint64_t k = 0; k < 80000; ++k) {
    const int target = Fleet::route(kSeed, k, kEndpoints);
    ASSERT_GE(target, 0);
    ASSERT_LT(target, kEndpoints);
    ASSERT_EQ(target, Fleet::route(kSeed, k, kEndpoints));  // pure function
    ++hits[static_cast<std::size_t>(target)];
  }
  for (const int count : hits) {
    EXPECT_GT(count, 9000);   // mean 10000 per endpoint
    EXPECT_LT(count, 11000);
  }
  // Different seeds route differently (the seed actually participates).
  int diffs = 0;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    diffs += Fleet::route(1, k, kEndpoints) != Fleet::route(2, k, kEndpoints);
  }
  EXPECT_GT(diffs, 500);
}

TEST(Fleet, EndpointSlicesMatchTheirNodes) {
  sim::Simulator simulator;
  const hw::Catalog catalog = generated(32);
  FleetConfig config;
  config.endpoints = 8;
  Fleet fleet(simulator, Rng(17), models::Zoo::instance(), catalog, config,
              paldia_factory(models::Zoo::instance()));
  ASSERT_EQ(fleet.endpoint_count(), 8);
  for (int e = 0; e < fleet.endpoint_count(); ++e) {
    EXPECT_EQ(fleet.slice(e).size(), fleet.slice_nodes(e).size());
  }
}

TEST(Fleet, ThrowsWhenAnEndpointSliceIsEmpty) {
  // slice_catalog deals CPUs and then GPUs from slice 0, so slice e is
  // empty once e reaches the larger of the two counts.
  const hw::Catalog catalog = generated(16);
  const auto gpus = catalog.gpus_by_capability_ascending().size();
  const auto cpus = catalog.size() - gpus;
  ASSERT_GT(cpus, 0u);
  ASSERT_GT(gpus, 0u);
  const int most = static_cast<int>(std::max(cpus, gpus));
  const auto build = [&](int endpoints) {
    sim::Simulator simulator;
    FleetConfig config;
    config.endpoints = endpoints;
    Fleet fleet(simulator, Rng(17), models::Zoo::instance(), catalog, config,
                paldia_factory(models::Zoo::instance()));
    return fleet.endpoint_count();
  };
  EXPECT_EQ(build(most), most);
  try {
    build(most + 1);
    FAIL() << "expected std::invalid_argument for " << most + 1 << " endpoints";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("endpoint " + std::to_string(most)),
              std::string::npos)
        << message;
    EXPECT_NE(message.find(std::to_string(cpus) + " CPU and " +
                           std::to_string(gpus) + " GPU nodes"),
              std::string::npos)
        << message;
  }
}

TEST(Fleet, AddWorkloadConservesRequestsAcrossEndpoints) {
  sim::Simulator simulator;
  const hw::Catalog catalog = generated(32);
  FleetConfig config;
  config.endpoints = 6;
  Fleet fleet(simulator, Rng(17), models::Zoo::instance(), catalog, config,
              paldia_factory(models::Zoo::instance()));
  trace::PoissonOptions poisson;
  poisson.duration_ms = 60'000.0;
  poisson.mean_rps = 200.0;
  poisson.seed = 9;
  const trace::Trace global = trace::make_poisson_trace(poisson);
  fleet.add_workload(models::ModelId::kResNet50, global);
  EXPECT_EQ(fleet.total_requests(), global.total_requests());
  std::uint64_t sum = 0;
  int endpoints_with_traffic = 0;
  for (int e = 0; e < fleet.endpoint_count(); ++e) {
    sum += fleet.endpoint_requests(e);
    endpoints_with_traffic += fleet.endpoint_requests(e) > 0 ? 1 : 0;
  }
  EXPECT_EQ(sum, global.total_requests());
  // ~12k arrivals over 6 endpoints: the router must spread the load.
  EXPECT_EQ(endpoints_with_traffic, fleet.endpoint_count());
}

}  // namespace
}  // namespace paldia::core
