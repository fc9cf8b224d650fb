// Figure 11 — Paldia vs. Oracle (clairvoyant Paldia with perfect arrival
// knowledge, ideal hardware timeline and offline-swept splits), Azure
// trace, two characteristically different models.
//
// Expected shape (paper): Paldia within ~0.8% of Oracle's SLO compliance
// (sometimes 0.1%); Oracle slightly cheaper (<1%) because Paldia pays for
// hardware-transition overlaps and prediction error.
#include "bench/bench_common.hpp"

using namespace paldia;

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  bench::print_header(
      "Fig. 11: Paldia vs Oracle (Azure trace)",
      "Paldia within ~0.8% of Oracle's compliance; cost difference <~1%.");

  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance(),
                     &bench::shared_pool(options),
                     bench::factory_options(options));
  bench::RunObserver observer(options, "fig11");
  Table table({"Model", "Scheme", "SLO compliance", "Cost", "Delta SLO",
               "Delta cost"});
  for (const auto model :
       {models::ModelId::kResNet50, models::ModelId::kSeNet18}) {
    auto scenario = exp::azure_scenario(model, options.repetitions);
    const auto paldia =
        observer.run(runner, scenario, exp::SchemeId::kPaldia).combined;
    const auto oracle =
        observer.run(runner, scenario, exp::SchemeId::kOracle).combined;
    table.add_row({std::string(models::model_id_name(model)), paldia.scheme,
                   Table::percent(paldia.slo_compliance), Table::dollars(paldia.cost),
                   "-", "-"});
    table.add_row({"", oracle.scheme, Table::percent(oracle.slo_compliance),
                   Table::dollars(oracle.cost),
                   Table::percent(oracle.slo_compliance - paldia.slo_compliance),
                   Table::percent(paldia.cost > 0
                                      ? (oracle.cost - paldia.cost) / paldia.cost
                                      : 0.0)});
  }
  table.print(std::cout);
  return 0;
}
