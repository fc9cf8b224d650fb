#include "src/perfmodel/tmax_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <tuple>

#include "src/common/rng.hpp"
#include "src/hw/catalog.hpp"
#include "src/hw/catalog_gen.hpp"
#include "src/models/profile.hpp"
#include "src/models/zoo.hpp"
#include "src/perfmodel/y_optimizer.hpp"

namespace paldia::perfmodel {
namespace {

constexpr auto kModel = models::ModelId::kResNet50;
constexpr auto kNode = hw::NodeType::kG3s_xlarge;

WorkloadPoint saturated_point(int n) {
  WorkloadPoint point;
  point.n_requests = n;
  point.batch_size = 8;
  point.solo_ms = 40.0;
  point.fbr = 0.12;
  point.slo_ms = 200.0;
  point.compute = 0.1;
  return point;
}

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

TEST(TmaxCache, FirstLookupMissesSecondHits) {
  YOptimizer optimizer{TmaxModel(0.2)};
  TmaxCache cache;
  const auto point = saturated_point(32);

  const auto first = cache.best_split(optimizer, kModel, kNode, point);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);

  const auto second = cache.best_split(optimizer, kModel, kNode, point);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);

  EXPECT_EQ(second.y, first.y);
  EXPECT_EQ(second.t_max_ms, first.t_max_ms);  // bit-identical, not near
  EXPECT_EQ(second.feasible, first.feasible);
}

TEST(TmaxCache, CachedDecisionMatchesDirectSweep) {
  YOptimizer optimizer{TmaxModel(0.2)};
  TmaxCache cache;
  for (const int n : {1, 4, 16, 32, 64, 100}) {
    const auto point = saturated_point(n);
    const auto direct = optimizer.best_split(point);
    // Twice: the miss path and the hit path must both reproduce it.
    for (int round = 0; round < 2; ++round) {
      const auto cached = cache.best_split(optimizer, kModel, kNode, point);
      EXPECT_EQ(cached.y, direct.y) << "n=" << n;
      EXPECT_EQ(cached.t_max_ms, direct.t_max_ms) << "n=" << n;
      EXPECT_EQ(cached.feasible, direct.feasible) << "n=" << n;
    }
  }
}

TEST(TmaxCache, DistinctKeysDoNotCollide) {
  YOptimizer optimizer{TmaxModel(0.2)};
  TmaxCache cache;
  const auto point = saturated_point(32);
  cache.best_split(optimizer, kModel, kNode, point);

  // Varying any key field is a fresh entry, not a hit.
  cache.best_split(optimizer, models::ModelId::kVgg19, kNode, point);
  cache.best_split(optimizer, kModel, hw::NodeType::kP3_2xlarge, point);
  cache.best_split(optimizer, kModel, kNode, saturated_point(33));

  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(TmaxCache, FeasibilityRecomputedFromUnquantizedSlo) {
  // Two budgets that straddle the computed t_max must get different
  // feasibility verdicts from the same cache entry: (y, t_max) is shared,
  // the verdict is not stored.
  YOptimizer optimizer{TmaxModel(0.2)};
  TmaxCache cache;
  const auto direct = optimizer.best_split(saturated_point(32));
  ASSERT_GT(direct.t_max_ms, 0.0);

  auto tight = saturated_point(32);
  tight.slo_ms = direct.t_max_ms * (1.0 - 1e-12);
  auto loose = saturated_point(32);
  loose.slo_ms = direct.t_max_ms * (1.0 + 1e-12);

  const auto first = cache.best_split(optimizer, kModel, kNode, tight);
  const auto second = cache.best_split(optimizer, kModel, kNode, loose);
  EXPECT_EQ(cache.stats().hits, 1u);  // same key: second lookup hits
  EXPECT_EQ(first.t_max_ms, second.t_max_ms);
  EXPECT_FALSE(first.feasible);
  EXPECT_TRUE(second.feasible);
}

// Reference suite: random lookups over Table II and generated 64- and
// 256-node catalogs (node indices past 63), every model, points built the
// way HardwareSelection builds them. Each cached result must equal a fresh
// YOptimizer::best_split bit for bit, and the counters must account every
// lookup against the distinct (model, node, N) keys.
TEST(TmaxCache, RandomLookupsMatchDirectSweepBitForBit) {
  const auto& zoo = models::Zoo::instance();
  std::string error;
  const auto gen64 = hw::parse_catalog_spec("gen:64", &error);
  ASSERT_TRUE(gen64.has_value()) << error;
  const hw::Catalog generated = hw::generate_catalog(*gen64);
  const auto gen256 = hw::parse_catalog_spec("gen:256", &error);
  ASSERT_TRUE(gen256.has_value()) << error;
  const hw::Catalog large = hw::generate_catalog(*gen256);
  // Budgets on both sides of typical t_max values, so keys are revisited
  // with opposite feasibility verdicts.
  constexpr std::array<double, 6> kHeadrooms = {0.25, 0.5, 0.85, 1.0, 2.0, 4.0};
  constexpr int kLookupsPerCatalog = 60'000;

  Rng rng(0x7a11ca5e);
  for (const hw::Catalog* catalog :
       {&hw::Catalog::instance(), &generated, &large}) {
    const models::ProfileTable profile(*catalog);
    const YOptimizer optimizer{TmaxModel(0.2)};
    const auto& gpus = catalog->gpus_by_capability_ascending();
    ASSERT_FALSE(gpus.empty());
    TmaxCache cache;
    std::set<std::tuple<int, int, int>> keys;
    std::set<std::tuple<int, int, int>> seen_feasible, seen_infeasible;
    std::set<int> models_seen;
    int max_node_index = 0;
    int max_n = 0;
    int mismatches = 0;
    std::string first_mismatch;

    for (int i = 0; i < kLookupsPerCatalog; ++i) {
      const auto model_id = static_cast<models::ModelId>(
          rng.uniform_int(0, models::kModelCount - 1));
      const auto& model = zoo.spec(model_id);
      const hw::NodeType node =
          gpus[static_cast<std::size_t>(rng.uniform_int(0, std::ssize(gpus) - 1))];
      // Mostly small N (where the dispatch and selection sweeps live, and
      // where keys repeat), sometimes anything up to 4096, and once in a
      // while up to 100,000 (a row grows to the largest N it is asked).
      const int n = static_cast<int>(
          rng.bernoulli(0.8)       ? rng.uniform_int(1, 2 * model.max_batch)
          : rng.bernoulli(0.9975) ? rng.uniform_int(1, 4096)
                                  : rng.uniform_int(1, 100'000));
      const double headroom = kHeadrooms[static_cast<std::size_t>(
          rng.uniform_int(0, std::ssize(kHeadrooms) - 1))];
      const int bs = std::min(model.max_batch, std::max(1, n));
      const auto entry = profile.lookup(model, node, bs);
      const WorkloadPoint point{n,          bs, entry.solo_ms, entry.fbr,
                                model.slo_ms * headroom, entry.compute};

      const auto cached = cache.best_split(optimizer, model_id, node, point);
      const auto direct = optimizer.best_split(point);
      if (cached.y != direct.y || bits(cached.t_max_ms) != bits(direct.t_max_ms) ||
          cached.feasible != direct.feasible) {
        if (mismatches++ == 0) {
          first_mismatch = "lookup " + std::to_string(i) + ": model " +
                           std::to_string(static_cast<int>(model_id)) + " node " +
                           std::string(catalog->name(node)) + " N " +
                           std::to_string(n);
        }
      }
      const auto key =
          std::make_tuple(static_cast<int>(model_id), hw::node_index(node), n);
      keys.insert(key);
      (direct.feasible ? seen_feasible : seen_infeasible).insert(key);
      models_seen.insert(static_cast<int>(model_id));
      max_node_index = std::max(max_node_index, hw::node_index(node));
      max_n = std::max(max_n, n);
    }

    EXPECT_EQ(mismatches, 0) << first_mismatch;
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<std::uint64_t>(kLookupsPerCatalog));
    EXPECT_EQ(stats.misses, cache.size());
    EXPECT_EQ(cache.size(), keys.size());
    EXPECT_GT(stats.hits, 0u);
    EXPECT_EQ(models_seen.size(), static_cast<std::size_t>(models::kModelCount));
    std::size_t straddled = 0;
    for (const auto& key : seen_feasible) straddled += seen_infeasible.count(key);
    EXPECT_GT(straddled, 0u) << "no key was looked up on both sides of its t_max";
    EXPECT_GT(max_n, 4096);
    if (catalog == &large) {
      EXPECT_GT(max_node_index, 63);
    }
  }
}

}  // namespace
}  // namespace paldia::perfmodel
