// Quickstart: serve one ML inference workload under a bursty serverless
// trace with Paldia and with the INFless/Llama cost-effective baseline, and
// compare SLO compliance, tail latency and cost.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [--threads=N]
#include <iostream>

#include "examples/example_common.hpp"
#include "src/common/table.hpp"
#include "src/exp/runner.hpp"
#include "src/exp/scenario.hpp"

int main(int argc, char** argv) {
  using namespace paldia;
  const auto args = examples::parse_args(argc, argv);

  // 1. Describe the experiment: ResNet 50 under a 25-minute Azure-style
  //    serverless trace (peak 225 rps, SLO 200 ms), one repetition.
  exp::Scenario scenario = exp::azure_scenario(models::ModelId::kResNet50,
                                               /*repetitions=*/1);

  // 2. Run two schemes through the shared serving harness.
  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance(),
                     examples::pool_for(args));
  const auto paldia = runner.run(scenario, exp::SchemeId::kPaldia);
  const auto infless = runner.run(scenario, exp::SchemeId::kInflessLlamaCost);

  // 3. Compare.
  Table table({"Scheme", "SLO compliance", "P99 latency", "Mean latency", "Cost"});
  for (const auto* result : {&paldia, &infless}) {
    const auto& m = result->combined;
    table.add_row({m.scheme, Table::percent(m.slo_compliance),
                   Table::num(m.p99_latency_ms, 1) + " ms",
                   Table::num(m.mean_latency_ms, 1) + " ms",
                   Table::dollars(m.cost)});
  }
  std::cout << "ResNet 50, Azure trace (" << scenario.workloads[0].trace.mean_rps()
            << " rps mean, " << scenario.workloads[0].trace.peak_rps()
            << " rps peak), SLO 200 ms\n\n";
  table.print(std::cout);
  return 0;
}
