// Randomized equivalence: the pruned Algorithm 1 walk must return exactly
// the same HardwareChoice as the exhaustive linear sweep — same node, same
// split, bit-identical T_max — over generated catalogs of every shape the
// generator can produce (GPU-heavy, CPU-only, twin-rich) and demand points
// from idle to infeasible-everywhere. fleet_frontier's self-check compares
// the two over a whole generated fleet.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/hardware_selection.hpp"
#include "src/hw/catalog_gen.hpp"
#include "src/models/profile.hpp"
#include "src/models/zoo.hpp"
#include "src/perfmodel/tmax_model.hpp"
#include "src/perfmodel/y_optimizer.hpp"

namespace paldia::core {
namespace {

DemandSnapshot snapshot(models::ModelId model, Rps rate, int backlog) {
  DemandSnapshot demand;
  demand.model = model;
  demand.observed_rps = rate;
  demand.predicted_rps = rate;
  demand.smoothed_rps = rate;
  demand.backlog = backlog;
  return demand;
}

/// One random demand vector: 1-3 models, rates spanning idle to hopeless.
std::vector<DemandSnapshot> random_demand(Rng& rng) {
  const int resident = static_cast<int>(rng.uniform_int(1, 3));
  std::vector<DemandSnapshot> demand;
  for (int m = 0; m < resident; ++m) {
    const auto model = static_cast<models::ModelId>(
        rng.uniform_int(0, models::kModelCount - 1));
    const double draw = rng.uniform();
    Rps rate;
    int backlog = 0;
    if (draw < 0.10) {
      rate = 0.0;  // idle endpoint
    } else if (draw < 0.80) {
      rate = rng.lognormal(2.5, 1.5);  // typical spread, ~1-300 rps
      backlog = static_cast<int>(rng.uniform_int(0, 48));
    } else if (draw < 0.93) {
      rate = rng.uniform(500.0, 3000.0);  // saturating / escalation regime
      backlog = static_cast<int>(rng.uniform_int(0, 256));
    } else {
      rate = rng.uniform(5000.0, 40000.0);  // infeasible everywhere
      backlog = static_cast<int>(rng.uniform_int(256, 4096));  // huge backlog
    }
    demand.push_back(snapshot(model, rate, backlog));
  }
  return demand;
}

void expect_identical(const HardwareChoice& pruned, const HardwareChoice& linear,
                      const std::string& context) {
  EXPECT_EQ(pruned.node, linear.node) << context;
  EXPECT_EQ(pruned.best_y, linear.best_y) << context;
  EXPECT_EQ(pruned.feasible, linear.feasible) << context;
  // Bit-identical, not approximately equal: the exports hash these bytes.
  EXPECT_EQ(std::memcmp(&pruned.t_max_ms, &linear.t_max_ms, sizeof(double)), 0)
      << context << " t_max " << pruned.t_max_ms << " vs " << linear.t_max_ms;
}

TEST(SelectionPrune, EquivalentToLinearOverGeneratedCatalogs) {
  const auto& zoo = models::Zoo::instance();
  Rng rng(0x5e1ec7ed);
  int cases = 0;
  int infeasible_cases = 0;
  int cpu_short_circuits = 0;
  // 20 catalog shapes x 50 demand points = 1000 equivalence cases.
  for (int c = 0; c < 20; ++c) {
    hw::CatalogGenConfig config;
    config.node_count = static_cast<int>(rng.uniform_int(8, 96));
    config.seed = rng.next_u64();
    // Every 5th catalog is CPU-only (the degraded fleet) and every 4th is
    // twin-rich (the dominance-dedup stress).
    config.gpu_fraction = (c % 5 == 4) ? 0.0 : rng.uniform(0.3, 0.85);
    config.twin_fraction = (c % 4 == 3) ? 0.5 : 0.2;
    const hw::Catalog catalog = hw::generate_catalog(config);
    const models::ProfileTable profile(catalog);
    const perfmodel::YOptimizer optimizer{perfmodel::TmaxModel(0.2)};

    HardwareSelectionConfig pruned_config, linear_config;
    linear_config.prune = false;
    const HardwareSelection pruned(zoo, catalog, profile, optimizer,
                                   pruned_config);
    const HardwareSelection linear(zoo, catalog, profile, optimizer,
                                   linear_config);

    for (int d = 0; d < 50; ++d) {
      const auto demand = random_demand(rng);
      const std::string context = "catalog " + std::to_string(c) + " demand " +
                                  std::to_string(d);
      const auto lazy_choice = pruned.choose(demand);
      const auto linear_choice = linear.choose(demand);
      expect_identical(lazy_choice, linear_choice, context);

      // Recorded mode: both settings evaluate the full pool (export parity)
      // and must agree with the lazy walk and with each other — including
      // the replayed work counters paldia-analyze reads.
      SelectionSweep pruned_sweep, linear_sweep;
      const auto recorded = pruned.choose(demand, &pruned_sweep);
      const auto recorded_linear = linear.choose(demand, &linear_sweep);
      expect_identical(recorded, lazy_choice, context + " (recorded vs lazy)");
      expect_identical(recorded_linear, linear_choice, context);
      EXPECT_EQ(pruned_sweep.pool_size, linear_sweep.pool_size) << context;
      EXPECT_EQ(pruned_sweep.evaluated, linear_sweep.evaluated) << context;
      EXPECT_EQ(pruned_sweep.pruned, linear_sweep.pruned) << context;
      EXPECT_EQ(pruned_sweep.pool_size,
                pruned_sweep.evaluated + pruned_sweep.pruned)
          << context;
      EXPECT_EQ(pruned_sweep.candidates.size(), linear_sweep.candidates.size())
          << context;
      EXPECT_EQ(pruned_sweep.cpu_short_circuit, linear_sweep.cpu_short_circuit)
          << context;

      ++cases;
      infeasible_cases += lazy_choice.feasible ? 0 : 1;
      cpu_short_circuits += pruned_sweep.cpu_short_circuit ? 1 : 0;
    }
  }
  EXPECT_EQ(cases, 1000);
  // The case mix must actually exercise the interesting regimes.
  EXPECT_GT(infeasible_cases, 20) << "no infeasible-everywhere coverage";
  EXPECT_GT(cpu_short_circuits, 50) << "no CPU short-circuit coverage";
}

TEST(SelectionPrune, EquivalentOnDefaultTableIICatalog) {
  const auto& zoo = models::Zoo::instance();
  const auto& catalog = hw::Catalog::instance();
  const models::ProfileTable profile(catalog);
  const perfmodel::YOptimizer optimizer{perfmodel::TmaxModel(0.2)};
  HardwareSelectionConfig linear_config;
  linear_config.prune = false;
  const HardwareSelection pruned(zoo, catalog, profile, optimizer);
  const HardwareSelection linear(zoo, catalog, profile, optimizer,
                                 linear_config);
  Rng rng(0xab1e);
  for (int d = 0; d < 200; ++d) {
    const auto demand = random_demand(rng);
    expect_identical(pruned.choose(demand), linear.choose(demand),
                     "table2 demand " + std::to_string(d));
  }
}

TEST(SelectionPrune, LowerBoundNeverExceedsEvaluatedTmax) {
  const auto& zoo = models::Zoo::instance();
  Rng rng(0x10b0);
  for (int c = 0; c < 6; ++c) {
    hw::CatalogGenConfig config;
    config.node_count = 48;
    config.seed = 77 + static_cast<std::uint64_t>(c);
    const hw::Catalog catalog = hw::generate_catalog(config);
    const models::ProfileTable profile(catalog);
    const perfmodel::YOptimizer optimizer{perfmodel::TmaxModel(0.2)};
    const HardwareSelection selection(zoo, catalog, profile, optimizer);
    for (int d = 0; d < 40; ++d) {
      const auto demand = random_demand(rng);
      for (hw::NodeType gpu : catalog.gpus_by_capability_ascending()) {
        bool provably_infeasible = false;
        const DurationMs bound =
            selection.gpu_t_max_lower_bound(gpu, demand, &provably_infeasible);
        const auto choice = selection.evaluate(gpu, demand);
        EXPECT_LE(bound, choice.t_max_ms)
            << "catalog " << c << " demand " << d << " node "
            << catalog.name(gpu);
        if (provably_infeasible) {
          EXPECT_FALSE(choice.feasible)
              << "catalog " << c << " demand " << d << " node "
              << catalog.name(gpu);
        }
      }
    }
  }
}

TEST(SelectionPrune, CpuOnlyCatalogDegradesInsteadOfAborting) {
  const auto& zoo = models::Zoo::instance();
  hw::CatalogGenConfig config;
  config.node_count = 12;
  config.gpu_fraction = 0.0;
  config.seed = 5;
  const hw::Catalog catalog = hw::generate_catalog(config);
  ASSERT_FALSE(catalog.most_performant_gpu().has_value());
  const models::ProfileTable profile(catalog);
  const perfmodel::YOptimizer optimizer{perfmodel::TmaxModel(0.2)};
  for (bool prune : {true, false}) {
    HardwareSelectionConfig selection_config;
    selection_config.prune = prune;
    const HardwareSelection selection(zoo, catalog, profile, optimizer,
                                      selection_config);
    // Light demand: a CPU node serves it.
    auto choice = selection.choose(
        {snapshot(models::ModelId::kResNet50, 4.0, 0)});
    EXPECT_FALSE(catalog.spec(choice.node).is_gpu());
    EXPECT_TRUE(choice.feasible);
    // Hopeless demand: no GPU to escalate to — the least-bad CPU comes back
    // marked infeasible rather than aborting.
    choice = selection.choose(
        {snapshot(models::ModelId::kBert, 2000.0, 512)});
    EXPECT_FALSE(catalog.spec(choice.node).is_gpu());
    EXPECT_FALSE(choice.feasible);
  }
}

}  // namespace
}  // namespace paldia::core
