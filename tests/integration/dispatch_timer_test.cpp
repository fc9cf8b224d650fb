// The dispatch timer wakes only at the grid slots where some workload's
// batcher can fire. These tests guard what makes that exact: the
// plan_dispatch contract it relies on, and the wait bounds a tick at every
// slot gives.
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/framework.hpp"
#include "src/exp/runner.hpp"
#include "src/exp/scheme_factory.hpp"
#include "src/hw/catalog_gen.hpp"
#include "src/obs/tracer.hpp"
#include "src/trace/generators.hpp"

namespace paldia::exp {
namespace {

constexpr SchemeId kEveryScheme[] = {
    SchemeId::kPaldia,         SchemeId::kInflessLlamaCost, SchemeId::kInflessLlamaPerf,
    SchemeId::kMoleculeCost,   SchemeId::kMoleculePerf,     SchemeId::kOracle,
    SchemeId::kOfflineHybrid,  SchemeId::kMpsOnlyPerf,      SchemeId::kMpsOnlyCost,
    SchemeId::kTimeSharedPerf, SchemeId::kTimeSharedCost,
};

// SchedulerPolicy::plan_dispatch's contract: once the batcher's target (the
// batch size clamped to [1, max_batch]) exceeds the backlog for one
// snapshot, it is the target for every snapshot of that (model, node), and
// such calls leave the T_max cache's counters alone.
void check_dispatch_contract(const hw::Catalog& catalog, std::uint64_t seed) {
  const auto& zoo = models::Zoo::instance();
  const models::ProfileTable profile(catalog);
  const SchemeFactory factory(zoo, catalog, profile);
  std::vector<models::ModelId> all_models = zoo.vision_models();
  for (const auto model : zoo.language_models()) all_models.push_back(model);
  Rng rng(seed);
  for (const SchemeId scheme : kEveryScheme) {
    auto policy = factory.make(scheme);
    ASSERT_NE(policy, nullptr);
    for (const auto model : all_models) {
      const int max_batch = zoo.spec(model).max_batch;
      for (int n = 0; n < static_cast<int>(catalog.size()); ++n) {
        const auto node = hw::NodeType(n);
        std::vector<std::pair<int, int>> targets;  // (backlog, target)
        bool waits = false;
        for (int i = 0; i < 6; ++i) {
          core::DemandSnapshot demand;
          demand.model = model;
          demand.backlog = static_cast<int>(
              i < 3 ? i + 1 : rng.uniform_int(1, 3 * std::max(1, max_batch)));
          demand.observed_rps = rng.uniform(0.0, 500.0);
          demand.predicted_rps = rng.uniform(0.0, 500.0);
          demand.smoothed_rps = rng.uniform(0.0, 500.0);
          const auto before = policy->tmax_cache_stats();
          const auto plan = policy->plan_dispatch(demand, node, rng.uniform(0.0, 1e6));
          const int target = std::min(std::max(1, plan.batch_size), max_batch);
          targets.emplace_back(demand.backlog, target);
          if (target <= demand.backlog) continue;
          waits = true;
          const auto after = policy->tmax_cache_stats();
          EXPECT_EQ(after.hits, before.hits) << scheme_name(scheme);
          EXPECT_EQ(after.misses, before.misses) << scheme_name(scheme);
        }
        if (!waits) continue;
        for (const auto& [backlog, target] : targets) {
          EXPECT_EQ(target, targets.front().second)
              << scheme_name(scheme) << " " << models::model_id_name(model) << " on "
              << catalog.name(node) << " at backlog " << backlog;
        }
      }
    }
  }
}

TEST(DispatchContract, TargetAboveTheBacklogIsFixedPerModelAndNodeOnTableII) {
  check_dispatch_contract(hw::Catalog::instance(), 11);
}

TEST(DispatchContract, TargetAboveTheBacklogIsFixedPerModelAndNodeOnGenerated) {
  const hw::Catalog catalog = hw::generate_catalog({.node_count = 64});
  check_dispatch_contract(catalog, 12);
}

// A tick at every grid slot dispatches a Paldia request at the first slot
// at or after its arrival, and a baseline request at the latest at the
// first slot after its batcher wait; skipping slots must not stretch
// either bound. No failures run, so no request is requeued.
TEST(DispatchTimer, RequestsLeaveTheGatewayWithinOneGridPeriodOfTheirBatchRule) {
  Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  Scenario scenario;
  scenario.name = "azure-short";
  trace::AzureOptions options;
  options.duration_ms = minutes(4);
  options.peak_rps = 120.0;
  scenario.workloads.push_back(
      WorkloadSpec{models::ModelId::kResNet50, trace::make_azure_trace(options)});
  const DurationMs period = core::Framework::kDispatchPeriodMs;
  const DurationMs max_wait = scenario.framework.batcher.max_wait_ms;
  for (const SchemeId scheme : {SchemeId::kPaldia, SchemeId::kOracle,
                                SchemeId::kInflessLlamaCost, SchemeId::kInflessLlamaPerf,
                                SchemeId::kMoleculeCost, SchemeId::kMoleculePerf}) {
    obs::Tracer tracer(obs::TracerConfig{.sample_rate = 1});
    runner.run_once(scenario, scheme, 5, false, &tracer);
    ASSERT_EQ(tracer.dropped_events(), 0u) << scheme_name(scheme);
    const bool batches_wait = scheme != SchemeId::kPaldia && scheme != SchemeId::kOracle;
    const DurationMs bound = batches_wait ? max_wait + period : period;
    std::size_t requests = 0;
    DurationMs longest = 0.0;
    for (const auto& event : tracer.events()) {
      if (event.type != obs::TraceEvent::Type::kRequest) continue;
      ++requests;
      // The queue phase: arrival -> gateway hand-off.
      longest = std::max(longest, event.submit_ms - event.start_ms);
    }
    EXPECT_GT(requests, 1'000u) << scheme_name(scheme);
    EXPECT_LE(longest, bound) << scheme_name(scheme);
    // The run reaches the bound's last period, so waking a period late
    // would show.
    EXPECT_GT(longest, bound - period) << scheme_name(scheme);
  }
}

}  // namespace
}  // namespace paldia::exp
