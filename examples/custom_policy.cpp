// Extending the framework: write your own SchedulerPolicy and run it
// through the same harness as the paper's schemes.
//
// The toy policy below, "GreedyGpu", always grabs the cheapest GPU and
// splits requests 50/50 between MPS and the time-shared lane — no model,
// no prediction. Comparing it against Paldia shows what the Eq. (1)-driven
// split and the hardware selection actually buy.
#include <iostream>
#include <optional>

#include "examples/example_common.hpp"
#include "src/common/table.hpp"
#include "src/core/scheduler_policy.hpp"
#include "src/exp/runner.hpp"
#include "src/exp/scenario.hpp"

namespace {

using namespace paldia;

class GreedyGpuPolicy final : public core::SchedulerPolicy {
 public:
  GreedyGpuPolicy(const models::Zoo& zoo, const hw::Catalog& catalog)
      : SchedulerPolicy(catalog), zoo_(&zoo) {}

  std::string name() const override { return "GreedyGpu (50/50)"; }

  hw::NodeType select_hardware(const std::vector<core::DemandSnapshot>&,
                               hw::NodeType, TimeMs) override {
    return hw::NodeType::kG3s_xlarge;  // always the cheapest GPU
  }

  core::SplitPlan plan_dispatch(const core::DemandSnapshot& demand, hw::NodeType,
                                TimeMs) override {
    core::SplitPlan plan;
    const auto& model = zoo_->spec(demand.model);
    plan.batch_size = std::min(model.max_batch, std::max(1, demand.backlog));
    plan.spatial_requests = demand.backlog / 2;
    plan.temporal_requests = demand.backlog - plan.spatial_requests;
    return plan;
  }

 private:
  const models::Zoo* zoo_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace paldia;
  const auto args = examples::parse_args(argc, argv);
  auto scenario = exp::azure_scenario(models::ModelId::kResNet50, 2);

  // Custom policies plug into the same Framework the Runner uses.
  auto run_custom = [&](std::unique_ptr<core::SchedulerPolicy> policy) {
    sim::Simulator simulator;
    Rng rng(scenario.base_seed);
    // Destroyed after the cluster, whose in-flight batches hold blocks of the
    // framework's request arena.
    std::optional<core::Framework> framework;
    cluster::Cluster cluster(simulator, rng.fork("cluster"));
    core::FrameworkConfig config = scenario.framework;
    config.initial_node = hw::NodeType::kG3s_xlarge;
    framework.emplace(simulator, cluster, std::move(policy), rng.fork("framework"),
                      models::Zoo::instance(), config);
    framework->add_workload(scenario.workloads[0].model, scenario.workloads[0].trace);
    framework->run();
    const auto& slo = framework->slo(scenario.workloads[0].model);
    const auto& latency = framework->latency(scenario.workloads[0].model);
    return std::tuple{slo.compliance(), latency.p99_ms(), cluster.total_cost()};
  };

  const auto [greedy_slo, greedy_p99, greedy_cost] = run_custom(
      std::make_unique<GreedyGpuPolicy>(models::Zoo::instance(),
                                        hw::Catalog::instance()));

  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance(),
                     examples::pool_for(args));
  const auto paldia = runner.run(scenario, exp::SchemeId::kPaldia).combined;

  Table table({"Scheme", "SLO compliance", "P99", "Cost"});
  table.add_row({"GreedyGpu (50/50)", Table::percent(greedy_slo),
                 Table::num(greedy_p99, 1) + " ms", "$" + Table::num(greedy_cost, 4)});
  table.add_row({paldia.scheme, Table::percent(paldia.slo_compliance),
                 Table::num(paldia.p99_latency_ms, 1) + " ms",
                 "$" + Table::num(paldia.cost, 4)});
  table.print(std::cout);
  std::cout << "\nGreedyGpu ignores demand and the interference model; Paldia's "
               "Eq. (1) split plus hardware selection deliver the difference.\n";
  return 0;
}
