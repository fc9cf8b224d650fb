// Figure 1 — motivation study: breakdown of tail (P99) latencies vs. SLO
// compliance for Time Shared Only (P)/($), MPS Only (P)/($) and Offline
// Hybrid, serving SENet 18 (~575 rps) and DenseNet 121 (~160 rps) together
// under the (relatively stable) Wiki trace, SLO 200 ms.
//
// Expected shape (paper): Offline Hybrid reaches >99% compliance on the
// cheap M60 while the ($) single-mechanism schemes lose up to ~16% (MPS
// Only: interference) / ~11% (Time Shared Only: queueing); the (P) schemes
// match Offline Hybrid only by paying >4x for the V100.
#include "bench/bench_common.hpp"
#include "src/trace/generators.hpp"
#include "src/trace/trace_ops.hpp"

using namespace paldia;

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  bench::print_header(
      "Fig. 1: hybrid-sharing motivation (SENet 18 + DenseNet 121, Wiki trace)",
      "Offline Hybrid >99% SLO on the cheap M60; MPS Only ($) loses up to 16% "
      "to interference; Time Shared Only ($) up to ~11% to queueing; (P) "
      "schemes win marginally at >4x cost.");

  // Co-located workloads on one GPU, stable Wiki-style arrivals. SENet 18
  // carries ~3.5x DenseNet's rate (575 vs 160 rps in the paper; scaled to
  // the simulated M60's envelope so that the trade-off region is exercised).
  exp::Scenario scenario;
  scenario.name = "wiki-motivation";
  scenario.repetitions = options.repetitions;
  trace::WikiOptions wiki;
  wiki.days = 1;
  wiki.day_length_ms = options.full ? hours(24) : seconds(600);
  wiki.seed = 21;
  wiki.peak_rps = 340.0;
  scenario.workloads.push_back(
      exp::WorkloadSpec{models::ModelId::kSeNet18, trace::make_wiki_trace(wiki)});
  wiki.seed = 22;
  wiki.peak_rps = 105.0;
  scenario.workloads.push_back(
      exp::WorkloadSpec{models::ModelId::kDenseNet121, trace::make_wiki_trace(wiki)});

  // Offline sweep for the hybrid split (the paper's pre-computed best).
  const double fraction = exp::sweep_offline_spatial_fraction(scenario, 10);
  std::cout << "Offline sweep picked spatial fraction " << fraction << "\n\n";

  exp::SchemeFactoryOptions factory_options = bench::factory_options(options);
  factory_options.offline_spatial_fraction = fraction;
  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance(),
                     &bench::shared_pool(options), factory_options);
  bench::RunObserver observer(options, "fig01");

  const std::vector<exp::SchemeId> schemes = {
      exp::SchemeId::kTimeSharedPerf, exp::SchemeId::kMpsOnlyPerf,
      exp::SchemeId::kTimeSharedCost, exp::SchemeId::kMpsOnlyCost,
      exp::SchemeId::kOfflineHybrid};

  for (std::size_t w = 0; w < scenario.workloads.size(); ++w) {
    const auto model = scenario.workloads[w].model;
    std::cout << "--- " << models::model_id_name(model) << " ---\n";
    Table table({"Scheme", "SLO compliance", "P99", "Min possible", "Queueing",
                 "Interference", "Cost"});
    for (const auto scheme : schemes) {
      const auto result = observer.run(runner, scenario, scheme);
      const auto& metrics = result.per_workload[w];
      const auto& breakdown = metrics.p99_breakdown;
      table.add_row({metrics.scheme, Table::percent(metrics.slo_compliance),
                     bench::ms(metrics.p99_latency_ms), bench::ms(breakdown.solo_ms),
                     bench::ms(breakdown.queue_ms),
                     bench::ms(breakdown.interference_ms),
                     Table::dollars(metrics.cost)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}
