// Fleet-scale hardware selection driver: a generated device catalog
// (--catalog=gen:N) driven by 100+ endpoints of random-walk demand, with a
// fig. 5-style cost-vs-SLO frontier swept over the selection headroom.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_common.hpp"
#include "src/exp/selection_sweep.hpp"
#include "src/hw/catalog_gen.hpp"
#include "src/models/profile.hpp"
#include "src/models/zoo.hpp"

namespace {

using namespace paldia;

struct Options {
  std::string catalog_spec = "gen:64";
  int fleet_nodes = 120;
  int ticks = 40;
  std::uint64_t seed = 2026;
};

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--catalog=", 0) == 0) {
      options.catalog_spec = arg.substr(10);
    } else if (arg.rfind("--fleet-nodes=", 0) == 0) {
      options.fleet_nodes =
          std::max(1, bench::parse_number<int>("--fleet-nodes", arg.substr(14)));
    } else if (arg.rfind("--ticks=", 0) == 0) {
      options.ticks =
          std::max(1, bench::parse_number<int>("--ticks", arg.substr(8)));
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = bench::parse_number<std::uint64_t>("--seed", arg.substr(7));
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--catalog=gen:N[:seed=S][:gpu=F]] [--fleet-nodes=N]\n"
          "          [--ticks=N] [--seed=S]\n"
          "  --catalog=SPEC     device catalog: 'table2' or 'gen:<count>'\n"
          "                     with optional :seed=/:gpu=/:noise=/:twins=\n"
          "  --fleet-nodes=N    model endpoints in the fleet (default 120)\n"
          "  --ticks=N          monitor ticks per endpoint (default 40)\n"
          "  --seed=S           demand random-walk seed (default 2026)\n",
          argv[0]);
      std::exit(0);
    } else {
      bench::usage_error("unknown option '" + arg + "'");
    }
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);

  std::string error;
  const auto gen = hw::parse_catalog_spec(options.catalog_spec, &error);
  if (!gen.has_value() && !error.empty()) bench::usage_error("--catalog: " + error);
  const hw::Catalog catalog =
      gen.has_value() ? hw::generate_catalog(*gen) : hw::Catalog::instance();
  const models::ProfileTable profile(catalog);
  const auto& zoo = models::Zoo::instance();

  int gpus = 0;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (catalog.spec(hw::make_node_type(static_cast<int>(i))).is_gpu()) ++gpus;
  }
  std::printf("=== Fleet-scale hardware selection ===\n");
  std::printf("Catalog: %s (%zu types: %d GPU, %zu CPU)\n",
              options.catalog_spec.c_str(), catalog.size(), gpus,
              catalog.size() - static_cast<std::size_t>(gpus));
  std::printf("Fleet:   %d endpoints x %d ticks (seed %llu)\n\n",
              options.fleet_nodes, options.ticks,
              static_cast<unsigned long long>(options.seed));

  exp::SelectionSweepConfig config;
  config.endpoints = options.fleet_nodes;
  config.ticks = options.ticks;
  config.seed = options.seed;
  const auto schedule = exp::build_sweep_schedule(config, zoo);

  // Cost-vs-SLO frontier: sweep the feasibility headroom. Lower headroom
  // accepts nodes closer to the raw SLO (cheaper, riskier); higher headroom
  // provisions conservatively (costlier, safer) — the fig. 5 trade-off at
  // fleet scale.
  std::printf("%-9s %10s %12s %12s %11s\n", "headroom", "$/hour",
              "SLO attain", "CPU share", "us/choose");
  for (double headroom : {0.70, 0.75, 0.80, 0.85, 0.90, 0.95}) {
    exp::SelectionSweepConfig point = config;
    point.slo_headroom = headroom;
    const auto result =
        exp::run_selection_sweep(point, schedule, zoo, catalog, profile);
    std::printf("%-9.2f %10.2f %11.1f%% %11.1f%% %11.1f\n", headroom,
                result.fleet_cost_per_hour, 100.0 * result.slo_attainment,
                100.0 * static_cast<double>(result.cpu_choices) /
                    static_cast<double>(result.choices),
                result.micros_per_choice);
  }
  return 0;
}
