// Figure 12 — additional real-world traces:
//  (a) 5-day diurnal Wikipedia trace (peak ~170 rps), ResNet 50;
//  (b) 90-minute erratic Twitter trace (5x the Azure mean), DPN 92.
//
// Expected shape (paper): the sustained high traffic of the Wiki trace
// drops the ($) schemes to 84.39% (Molecule) / 79.93% (INFless) while
// Paldia keeps 99.25% at only ~4% more cost (72% below the (P) schemes);
// the erratic Twitter trace is harsher still (71.86% / 70.28% vs Paldia's
// 98.48%, ~7% more cost, 69% below (P)).
//
// The Wiki trace runs time-compressed by default (same diurnal shape);
// pass --full for the real 5 x 24 h length.
#include "bench/bench_common.hpp"
#include "src/trace/generators.hpp"

using namespace paldia;

namespace {

void run_block(const exp::Runner& runner, exp::Scenario& scenario,
               const std::string& title, ThreadPool* pool,
               bench::RunObserver& observer) {
  std::cout << "--- " << title << " ---\n";
  Table table({"Scheme", "SLO compliance", "P99", "Cost", "Normalized cost"});
  const auto rows = bench::run_schemes(runner, scenario, exp::main_schemes(),
                                       observer, /*keep_cdf=*/false, pool);
  double max_cost = 0.0;
  for (const auto& row : rows) max_cost = std::max(max_cost, row.cost);
  for (const auto& row : rows) {
    table.add_row({row.scheme, Table::percent(row.slo_compliance),
                   bench::ms(row.p99_latency_ms), Table::dollars(row.cost),
                   Table::num(row.cost / max_cost, 3)});
  }
  table.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  bench::print_header(
      "Fig. 12: Wikipedia (ResNet 50) and Twitter (DPN 92) traces",
      "Sustained/erratic traffic widens Paldia's compliance lead over the "
      "($) schemes (99.25% vs ~80-84%; 98.48% vs ~70-72%) at a few % more "
      "cost, far below the (P) schemes.");

  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance(),
                     &bench::shared_pool(options),
                     bench::factory_options(options));
  bench::RunObserver observer(options, "fig12");

  {
    exp::Scenario scenario;
    scenario.name = "wikipedia";
    scenario.repetitions = options.repetitions;
    trace::WikiOptions wiki;
    if (options.full) wiki.day_length_ms = hours(24);
    scenario.workloads.push_back(exp::WorkloadSpec{
        models::ModelId::kResNet50, trace::make_wiki_trace(wiki)});
    run_block(runner, scenario, "(a) Wikipedia trace, ResNet 50",
              &bench::shared_pool(options), observer);
  }
  {
    exp::Scenario scenario;
    scenario.name = "twitter";
    scenario.repetitions = options.repetitions;
    trace::TwitterOptions twitter;
    if (!options.full) twitter.duration_ms = minutes(30);
    scenario.workloads.push_back(exp::WorkloadSpec{
        models::ModelId::kDpn92, trace::make_twitter_trace(twitter)});
    run_block(runner, scenario, "(b) Twitter trace, DPN 92",
              &bench::shared_pool(options), observer);
  }
  return 0;
}
