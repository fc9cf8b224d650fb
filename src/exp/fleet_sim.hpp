// End-to-end multi-gateway fleet experiment: a core::Fleet (E endpoints over
// a sliced catalog, one shared simulator) driven by a Scenario's
// workloads, with the full per-endpoint observability stack and the same
// RunMetrics extraction as the per-scheme Runner.
//
// The obs::RunTrace slots are reused with one slot per *endpoint* (instead
// of per repetition): tracer/rollup/profiler/health slot e observes endpoint
// e, and the existing exporters walk the slots in endpoint order — so fleet
// exports are byte-identical across --threads exactly like per-rep exports.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/fleet.hpp"
#include "src/exp/runner.hpp"

namespace paldia::exp {

struct FleetSimResult {
  /// Endpoint-local metrics, endpoint order; rows are labelled
  /// "<scenario>-e<endpoint>".
  std::vector<RunResult> per_endpoint;
  /// Fleet-wide merged row ("<scenario>-fleet"): histograms merged across
  /// endpoints, cost / violations / cold starts summed, power and
  /// utilization averaged over endpoints.
  telemetry::RunMetrics combined;
  std::uint64_t total_requests = 0;  // arrivals routed across all gateways
  std::uint64_t unserved = 0;        // still pending at the drain cap
  std::uint64_t events_processed = 0;
  TimeMs end_ms = 0.0;
  int endpoints = 0;
  int nodes = 0;  // global catalog size
};

class FleetSim {
 public:
  /// `catalog` is the global fleet catalog (typically generated,
  /// hw::parse_catalog_spec). The pool only parallelizes Algorithm 1's
  /// candidate sweep inside each endpoint's policy; exports are identical
  /// with or without it.
  FleetSim(const models::Zoo& zoo, const hw::Catalog& catalog,
           ThreadPool* pool = nullptr, SchemeFactoryOptions options = {});

  /// One fleet run: `endpoints` gateways serve the scenario's workloads,
  /// each global trace split per endpoint by the splitmix64 router seeded
  /// from scenario.base_seed. `trace` (optional) gets one observation slot
  /// per endpoint for each enabled stream. Supported schemes are
  /// main_schemes() — Paldia and the INFless/Llama / Molecule variants,
  /// which select hardware over whatever catalog they are given (perf
  /// variants start on the slice's best GPU when it has one). Oracle (trace
  /// reveal predates the routing split) and the Table II pinned-node
  /// figure-1 baselines (their pins name global indices) are rejected.
  /// Throws std::invalid_argument when `endpoints` leaves a slice empty
  /// (see core::FleetConfig::endpoints).
  FleetSimResult run(const Scenario& scenario, SchemeId scheme, int endpoints,
                     obs::RunTrace* trace = nullptr) const;

  const SchemeFactoryOptions& options() const { return options_; }

 private:
  const models::Zoo* zoo_;
  const hw::Catalog* catalog_;
  ThreadPool* pool_;
  SchemeFactoryOptions options_;
};

}  // namespace paldia::exp
