// Surge tolerance: subject one model to an engineered surge (quiet
// baseline -> configurable spike) and watch each scheme's goodput and node
// choice through the surge window — the dynamics behind Fig. 7a.
//
//   ./build/examples/surge_tolerance [--threads=N] [peak-rps] [surge-seconds]
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "examples/example_common.hpp"
#include "src/common/table.hpp"
#include "src/exp/runner.hpp"
#include "src/exp/scenario.hpp"
#include "src/trace/trace_ops.hpp"

int main(int argc, char** argv) {
  using namespace paldia;
  const auto args = examples::parse_args(argc, argv);

  const double peak = examples::positional(args, 0, 225.0);
  const double surge_s = examples::positional(args, 1, 45.0);
  if (!(peak > 0.0 && surge_s > 0.0 && std::isfinite(peak) && std::isfinite(surge_s))) {
    bench::usage_error("peak-rps and surge-seconds must be positive");
  }
  constexpr auto kModel = models::ModelId::kDenseNet121;

  // Build the trace by hand: 60 s quiet at 10 rps, a raised-cosine surge to
  // `peak`, then 60 s quiet again.
  const DurationMs epoch = 100.0;
  const DurationMs duration = seconds(120 + surge_s);
  std::vector<double> rates(static_cast<std::size_t>(duration / epoch), 10.0);
  const double t0 = seconds(60), t1 = seconds(60 + surge_s);
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double t = i * epoch;
    if (t >= t0 && t < t1) {
      const double phase = (t - t0) / (t1 - t0) * 2.0 - 1.0;  // [-1, 1]
      rates[i] = 10.0 + (peak - 10.0) * 0.5 * (1.0 + std::cos(phase * M_PI));
    }
  }
  Rng rng(99);
  exp::Scenario scenario;
  scenario.name = "surge";
  scenario.repetitions = 2;
  scenario.goodput_window_ms = seconds(surge_s);
  scenario.workloads.push_back(exp::WorkloadSpec{
      kModel, trace::from_rate_profile("surge", epoch, rates, rng)});

  std::cout << "DenseNet 121, baseline 10 rps, surge to " << peak << " rps over "
            << surge_s << " s. Goodput measured over the surge window.\n\n";

  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance(),
                     examples::pool_for(args));
  Table table({"Scheme", "SLO", "Goodput (rps)", "Offered (rps)", "Served",
               "Cost"});
  for (const auto scheme : exp::main_schemes()) {
    const auto metrics = runner.run(scenario, scheme).combined;
    table.add_row(
        {metrics.scheme, Table::percent(metrics.slo_compliance),
         Table::num(metrics.goodput_rps, 1), Table::num(metrics.offered_rps, 1),
         Table::percent(metrics.offered_rps > 0
                            ? metrics.goodput_rps / metrics.offered_rps
                            : 1.0),
         Table::dollars(metrics.cost)});
  }
  table.print(std::cout);
  return 0;
}
