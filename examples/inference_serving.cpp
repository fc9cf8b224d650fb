// Full inference-serving comparison: every scheme the paper evaluates,
// serving a model of your choice under the Azure serverless trace, with
// the complete metric set (SLO compliance, tail latency, cost, power,
// utilization, goodput).
//
//   ./build/examples/inference_serving [--threads=N] [model-index 0..15] [reps]
//
// Model indices follow paldia::models::ModelId (0 = ResNet 50).
#include <cstdlib>
#include <iostream>

#include "examples/example_common.hpp"
#include "src/common/table.hpp"
#include "src/exp/runner.hpp"
#include "src/exp/scenario.hpp"

int main(int argc, char** argv) {
  using namespace paldia;
  const auto args = examples::parse_args(argc, argv);

  const int model_index =
      std::clamp(examples::positional(args, 0, 0), 0, models::kModelCount - 1);
  const int reps = std::max(1, examples::positional(args, 1, 2));
  const auto model = models::ModelId(model_index);
  const auto& spec = models::Zoo::instance().spec(model);

  exp::Scenario scenario = spec.domain == models::Domain::kLanguage
                               ? exp::llm_scenario(model, reps)
                               : exp::azure_scenario(model, reps);

  std::cout << "Serving " << spec.name << " (max batch " << spec.max_batch
            << ", SLO " << spec.slo_ms << " ms) under the Azure trace: peak "
            << scenario.workloads[0].trace.peak_rps() << " rps, mean "
            << scenario.workloads[0].trace.mean_rps() << " rps, "
            << scenario.workloads[0].trace.total_requests() << " requests.\n\n";

  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance(),
                     examples::pool_for(args));
  Table table({"Scheme", "SLO", "P99", "Mean", "Cost", "Power", "GPU util",
               "Goodput/offered"});
  for (const auto scheme : exp::main_schemes()) {
    const auto metrics = runner.run(scenario, scheme).combined;
    const double goodput_fraction =
        metrics.offered_rps > 0 ? metrics.goodput_rps / metrics.offered_rps : 1.0;
    table.add_row({metrics.scheme, Table::percent(metrics.slo_compliance),
                   Table::num(metrics.p99_latency_ms, 1) + " ms",
                   Table::num(metrics.mean_latency_ms, 1) + " ms",
                   Table::dollars(metrics.cost),
                   Table::num(metrics.average_power, 0) + " W",
                   Table::percent(metrics.gpu_utilization),
                   Table::percent(goodput_fraction)});
  }
  table.print(std::cout);
  return 0;
}
