// Multi-gateway fleet simulation driver: E serving endpoints (gateways)
// over a sliced generated catalog, one shared simulator, millions of
// requests end-to-end. Default load: --catalog=gen:256 --endpoints=64 with
// a ~1.2M-request Poisson trace routed across the gateways by the
// deterministic splitmix64 router.
//
// All exports (--trace-out / --metrics-out / --decisions-out / --rollup-out
// / --alerts-out / --report-out) are byte-identical across --threads; the
// wall-clock summary goes to stdout only. CI runs the small smoke
// (--catalog=gen:16 --endpoints=4) and byte-compares the --threads=8
// exports against the --threads=1 run.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "bench/bench_common.hpp"
#include "src/exp/fleet_sim.hpp"
#include "src/hw/catalog_gen.hpp"
#include "src/trace/generators.hpp"

using namespace paldia;

namespace {

struct FleetFlags {
  std::uint64_t requests = 1'200'000;  // Poisson mean over the whole fleet
  double duration_s = 300.0;
  std::uint64_t trace_seed = 4;
  exp::SchemeId scheme = exp::SchemeId::kPaldia;
  bool catalog_given = false;
  bool endpoints_given = false;
};

FleetFlags parse_fleet_flags(int argc, char** argv) {
  FleetFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--requests=", 0) == 0) {
      flags.requests = bench::parse_number<std::uint64_t>("--requests", arg.substr(11));
    } else if (arg.rfind("--duration=", 0) == 0) {
      flags.duration_s =
          std::max(1.0, bench::parse_number<double>("--duration", arg.substr(11)));
    } else if (arg.rfind("--seed=", 0) == 0) {
      flags.trace_seed = bench::parse_number<std::uint64_t>("--seed", arg.substr(7));
    } else if (arg.rfind("--scheme=", 0) == 0) {
      const std::string name = arg.substr(9);
      if (name == "paldia") {
        flags.scheme = exp::SchemeId::kPaldia;
      } else if (name == "infless-cost") {
        flags.scheme = exp::SchemeId::kInflessLlamaCost;
      } else if (name == "infless-perf") {
        flags.scheme = exp::SchemeId::kInflessLlamaPerf;
      } else if (name == "molecule-cost") {
        flags.scheme = exp::SchemeId::kMoleculeCost;
      } else if (name == "molecule-perf") {
        flags.scheme = exp::SchemeId::kMoleculePerf;
      } else {
        std::fprintf(stderr,
                     "error: --scheme wants paldia|infless-cost|infless-perf|"
                     "molecule-cost|molecule-perf, got '%s'\n", name.c_str());
        std::exit(1);
      }
    } else if (arg.rfind("--catalog=", 0) == 0) {
      flags.catalog_given = true;
    } else if (arg.rfind("--endpoints=", 0) == 0) {
      flags.endpoints_given = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "Fleet extras (on top of the shared bench flags):\n"
          "  --requests=N   Poisson mean arrivals over the run (default 1.2M)\n"
          "  --duration=S   trace duration in seconds (default 300)\n"
          "  --seed=S       Poisson trace seed (default 4)\n"
          "  --scheme=NAME  paldia|infless-cost|infless-perf|molecule-cost|\n"
          "                 molecule-perf (default paldia)\n"
          "Fleet defaults for the shared flags: --catalog=gen:256 "
          "--endpoints=64\n\n");
    }
  }
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  // Fleet extras first: on --help they print before parse_options' shared
  // usage text (which exits).
  const FleetFlags flags = parse_fleet_flags(argc, argv);
  auto options = bench::parse_options(
      argc, argv, {"--requests", "--duration", "--seed", "--scheme"});
  // The shared-flag defaults suit the single-cluster figure drivers; the
  // fleet wants scale unless told otherwise.
  if (!flags.catalog_given) options.catalog = "gen:256";
  if (!flags.endpoints_given) options.endpoints = 64;

  std::string error;
  const auto gen = hw::parse_catalog_spec(options.catalog, &error);
  if (!gen.has_value() && !error.empty()) {
    std::fprintf(stderr, "error: --catalog: %s\n", error.c_str());
    return 1;
  }
  const hw::Catalog catalog =
      gen.has_value() ? hw::generate_catalog(*gen) : hw::Catalog::instance();
  const auto& zoo = models::Zoo::instance();

  int gpus = 0;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (catalog.spec(hw::make_node_type(static_cast<int>(i))).is_gpu()) ++gpus;
  }

  // One fleet-wide Poisson workload, split across gateways by the router.
  exp::Scenario scenario;
  scenario.name = "fleet-poisson";
  trace::PoissonOptions poisson;
  poisson.duration_ms = flags.duration_s * 1000.0;
  poisson.mean_rps = static_cast<double>(flags.requests) / flags.duration_s;
  poisson.seed = flags.trace_seed;
  scenario.workloads.push_back(exp::WorkloadSpec{
      models::ModelId::kResNet50, trace::make_poisson_trace(poisson)});

  bench::print_header(
      "Fleet simulation: multi-gateway serving over a sliced catalog",
      "SLO-compliant serving holds up at fleet scale — E independent "
      "gateways over slices of one heterogeneous catalog, one shared "
      "simulator.");
  std::printf("Catalog:   %s (%zu nodes: %d GPU, %zu CPU)\n",
              options.catalog.c_str(), catalog.size(), gpus,
              catalog.size() - static_cast<std::size_t>(gpus));
  std::printf("Fleet:     %d endpoints, scheme %s, threads=%d\n",
              options.endpoints, exp::scheme_name(flags.scheme).c_str(),
              options.threads);
  std::printf("Workload:  %llu arrivals over %.0f s (Poisson, seed %llu)\n\n",
              static_cast<unsigned long long>(
                  scenario.workloads[0].trace.total_requests()),
              flags.duration_s,
              static_cast<unsigned long long>(flags.trace_seed));

  exp::FleetSim fleet_sim(zoo, catalog, &bench::shared_pool(options),
                          bench::factory_options(options));
  bench::RunObserver observer(options, "fleet_sim");

  const auto wall_start = std::chrono::steady_clock::now();
  exp::FleetSimResult result;
  try {
    if (observer.tracing()) {
      obs::RunTrace trace = observer.make_trace();
      result = fleet_sim.run(scenario, flags.scheme, options.endpoints, &trace);
      observer.export_trace(trace, scenario.name,
                            exp::scheme_name(flags.scheme));
    } else {
      result = fleet_sim.run(scenario, flags.scheme, options.endpoints);
    }
  } catch (const std::invalid_argument& error) {
    bench::usage_error(std::string("--endpoints: ") + error.what());
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // Stream endpoint rows then the fleet row — deterministic order, so the
  // metrics file byte-compares across --threads.
  for (const auto& endpoint : result.per_endpoint) {
    observer.record(endpoint.combined);
  }
  observer.record(result.combined);

  // Self-check: every routed arrival landed on exactly one gateway.
  std::uint64_t routed = 0;
  for (const auto& endpoint : result.per_endpoint) {
    routed += endpoint.combined.requests;
  }
  routed += result.unserved;
  if (routed != result.total_requests) {
    std::fprintf(stderr,
                 "FAIL: %llu arrivals routed but %llu served+unserved\n",
                 static_cast<unsigned long long>(result.total_requests),
                 static_cast<unsigned long long>(routed));
    return 1;
  }

  const auto& fleet_row = result.combined;
  Table table({"Endpoints", "Nodes", "Requests", "Unserved", "SLO attain",
               "P50", "P99", "Cost", "Power"});
  table.add_row({std::to_string(result.endpoints),
                 std::to_string(result.nodes),
                 std::to_string(fleet_row.requests),
                 std::to_string(result.unserved),
                 Table::percent(fleet_row.slo_compliance),
                 bench::ms(fleet_row.p50_latency_ms),
                 bench::ms(fleet_row.p99_latency_ms),
                 bench::dollars(fleet_row.cost),
                 Table::num(fleet_row.average_power, 1) + " W"});
  table.print(std::cout);

  std::printf("\nDrain: %llu events, %.1f s simulated, %.2f s wall, "
              "%.0f requests/s wall\n",
              static_cast<unsigned long long>(result.events_processed),
              result.end_ms / 1000.0, wall_s,
              static_cast<double>(result.total_requests) / std::max(1e-9, wall_s));
  return 0;
}
