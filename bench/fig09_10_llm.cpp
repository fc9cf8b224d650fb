// Figures 9 & 10 — SLO compliance and cost for the four large language
// models (ALBERT, BERT, DistilBERT, Funnel-Transformer) under a light
// trace (peak 8 rps, batch <= 8; very high FBRs).
//
// Expected shape (paper): every cost-effective scheme selects pricier
// hardware than for vision (avg +86% cost); Paldia averages 99.54%
// compliance vs 97.73% for the ($) schemes, within 0.45% of the (P)
// schemes at ~29% of their cost.
#include "bench/bench_common.hpp"

using namespace paldia;

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  bench::print_header(
      "Fig. 9/10: large language models (SLO compliance and cost)",
      "Paldia ~99.5% avg compliance vs ~97.7% for ($) schemes; ~72% cost "
      "savings vs (P) schemes.");

  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance(),
                     &bench::shared_pool(options),
                     bench::factory_options(options));
  bench::RunObserver observer(options, "fig09_10");
  const auto schemes = exp::main_schemes();
  const auto llms = models::Zoo::instance().language_models();

  std::vector<std::string> columns = {"Model"};
  for (const auto scheme : schemes) columns.push_back(exp::scheme_name(scheme));

  Table slo_table(columns);
  Table cost_table(columns);
  std::vector<double> slo_sums(schemes.size(), 0.0), cost_sums(schemes.size(), 0.0);

  for (const auto model : llms) {
    auto scenario = exp::llm_scenario(model, options.repetitions);
    std::vector<std::string> slo_row = {std::string(models::model_id_name(model))};
    std::vector<std::string> cost_row = slo_row;
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      const auto metrics = observer.run(runner, scenario, schemes[s]).combined;
      slo_row.push_back(Table::percent(metrics.slo_compliance));
      cost_row.push_back(Table::dollars(metrics.cost));
      slo_sums[s] += metrics.slo_compliance;
      cost_sums[s] += metrics.cost;
    }
    slo_table.add_row(std::move(slo_row));
    cost_table.add_row(std::move(cost_row));
  }
  std::vector<std::string> slo_avg = {"AVERAGE"}, cost_avg = {"AVERAGE"};
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    slo_avg.push_back(Table::percent(slo_sums[s] / llms.size()));
    cost_avg.push_back(Table::dollars(cost_sums[s] / llms.size()));
  }
  slo_table.add_row(std::move(slo_avg));
  cost_table.add_row(std::move(cost_avg));

  std::cout << "--- Fig. 9: SLO compliance ---\n";
  slo_table.print(std::cout);
  std::cout << "\n--- Fig. 10: cost ---\n";
  cost_table.print(std::cout);
  return 0;
}
