// Figure 5 — normalized cost vs. SLO compliance, for a high-FBR model
// (ResNet 50) and the low-FBR outlier (EfficientNet-B0), Azure trace.
//
// Expected shape (paper): Paldia saves ~85% vs. the (P) schemes; the other
// cost-effective schemes are marginally cheaper (~1-3%) but far less
// compliant; for low-FBR models the cost difference between Paldia and the
// ($) schemes nearly vanishes (0.3% for EfficientNet-B0).
#include "bench/bench_common.hpp"

using namespace paldia;

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  bench::print_header(
      "Fig. 5: normalized cost vs SLO compliance (ResNet 50, EfficientNet-B0)",
      "Paldia ~85% cheaper than (P) schemes at comparable compliance; only "
      "marginally (~1-3%) costlier than the ($) schemes while up to ~11% more "
      "compliant.");

  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance(),
                     &bench::shared_pool(options),
                     bench::factory_options(options));
  bench::RunObserver observer(options, "fig05");
  for (const auto model :
       {models::ModelId::kResNet50, models::ModelId::kEfficientNetB0}) {
    auto scenario = exp::azure_scenario(model, options.repetitions);
    std::cout << "--- " << models::model_id_name(model) << " ---\n";

    // Normalize to the most expensive scheme (the (P) column in the paper).
    std::vector<telemetry::RunMetrics> rows =
        bench::run_schemes(runner, scenario, exp::main_schemes(), observer,
                           /*keep_cdf=*/false, &bench::shared_pool(options));
    double max_cost = 0.0;
    for (const auto& row : rows) max_cost = std::max(max_cost, row.cost);

    Table table({"Scheme", "Cost", "Normalized cost", "SLO compliance"});
    for (const auto& row : rows) {
      table.add_row({row.scheme, Table::dollars(row.cost),
                     Table::num(row.cost / max_cost, 3),
                     Table::percent(row.slo_compliance)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}
