#include "src/exp/fleet_sim.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/obs/attribution.hpp"
#include "src/obs/calibration.hpp"
#include "src/telemetry/cost_tracker.hpp"

namespace paldia::exp {

namespace {

bool is_perf_variant(SchemeId scheme) {
  return scheme == SchemeId::kInflessLlamaPerf ||
         scheme == SchemeId::kMoleculePerf;
}

bool fleet_supported(SchemeId scheme) {
  switch (scheme) {
    case SchemeId::kPaldia:
    case SchemeId::kInflessLlamaCost:
    case SchemeId::kInflessLlamaPerf:
    case SchemeId::kMoleculeCost:
    case SchemeId::kMoleculePerf:
      return true;
    default:
      return false;
  }
}

}  // namespace

FleetSim::FleetSim(const models::Zoo& zoo, const hw::Catalog& catalog,
                   ThreadPool* pool, SchemeFactoryOptions options)
    : zoo_(&zoo), catalog_(&catalog), pool_(pool), options_(options) {}

FleetSimResult FleetSim::run(const Scenario& scenario, SchemeId scheme,
                             int endpoints, obs::RunTrace* trace) const {
  if (!fleet_supported(scheme)) {
    std::fprintf(stderr, "FleetSim: scheme '%s' is not supported at fleet scale\n",
                 scheme_name(scheme).c_str());
    std::abort();
  }
  assert(endpoints >= 1);
  const auto slots = static_cast<std::size_t>(endpoints);

  sim::Simulator simulator;
  Rng rng(scenario.base_seed);

  // Per-endpoint observation slots, endpoint order (mirrors Runner::run's
  // per-repetition slots — exporters walk them in slot order).
  if (trace != nullptr) {
    trace->config.sample_rate = options_.sample_rate;
    trace->health_config.slo_target = options_.slo_target;
    trace->health_config.fast_window_ms = options_.burn_fast_ms;
    trace->health_config.slow_window_ms = options_.burn_slow_ms;
    trace->reps.clear();
    trace->rollups.clear();
    trace->profiles.clear();
    trace->healths.clear();
    if (trace->capture_events) {
      trace->reps.reserve(slots);
      for (std::size_t e = 0; e < slots; ++e) {
        trace->reps.push_back(std::make_unique<obs::Tracer>(trace->config));
      }
    }
    if (trace->collect_rollups) {
      trace->rollups.reserve(slots);
      for (std::size_t e = 0; e < slots; ++e) {
        trace->rollups.push_back(
            std::make_unique<obs::RollupAggregator>(trace->rollup_config));
      }
    }
    if (trace->profile) {
      trace->profiles.reserve(slots);
      for (std::size_t e = 0; e < slots; ++e) {
        trace->profiles.push_back(std::make_unique<obs::Profiler>());
      }
    }
    if (trace->collect_health) {
      trace->healths.reserve(slots);
      for (std::size_t e = 0; e < slots; ++e) {
        trace->healths.push_back(
            std::make_unique<obs::HealthEngine>(trace->health_config));
      }
    }
  }

  // Per-endpoint attribution + calibration engines (the calibration only
  // fills when the endpoint has a tracer with decision sweeps).
  obs::CalibrationTracker::Config calibration_config;
  if (!scenario.workloads.empty()) {
    calibration_config.slo_ms = kTimeNever;
    for (const auto& workload : scenario.workloads) {
      calibration_config.slo_ms =
          std::min(calibration_config.slo_ms, zoo_->spec(workload.model).slo_ms);
    }
  }
  std::vector<std::unique_ptr<obs::AttributionEngine>> attributions;
  std::vector<std::unique_ptr<obs::CalibrationTracker>> calibrations;
  attributions.reserve(slots);
  calibrations.reserve(slots);
  for (std::size_t e = 0; e < slots; ++e) {
    attributions.push_back(std::make_unique<obs::AttributionEngine>(*zoo_));
    calibrations.push_back(
        std::make_unique<obs::CalibrationTracker>(calibration_config));
  }

  core::FleetConfig fleet_config;
  fleet_config.endpoints = endpoints;
  fleet_config.route_seed = scenario.base_seed;
  fleet_config.framework = scenario.framework;
  fleet_config.framework.request_pool = options_.request_pool;

  core::Fleet fleet(
      simulator, rng.fork("fleet"), *zoo_, *catalog_, fleet_config,
      [this, scheme](int, const hw::Catalog& slice,
                     const models::ProfileTable& profile) {
        // A slice-local factory: the policy holds pointers into the
        // endpoint-owned catalog/profile, which outlive it.
        SchemeFactory factory(*zoo_, slice, profile, pool_, options_);
        return factory.make(scheme);
      },
      [&](int e, const hw::Catalog& slice, core::FrameworkConfig& config) {
        const auto slot = static_cast<std::size_t>(e);
        config.attribution = attributions[slot].get();
        config.calibration = calibrations[slot].get();
        if (trace != nullptr) {
          if (trace->capture_events) config.tracer = trace->reps[slot].get();
          if (trace->collect_rollups) config.rollup = trace->rollups[slot].get();
          if (trace->profile) config.profiler = trace->profiles[slot].get();
          if (trace->collect_health) config.health = trace->healths[slot].get();
        }
        if (is_perf_variant(scheme) && slice.most_performant_gpu()) {
          config.initial_node = *slice.most_performant_gpu();
        }
      });

  for (const auto& workload : scenario.workloads) {
    fleet.add_workload(workload.model, workload.trace);
  }

  FleetSimResult result;
  result.end_ms = fleet.run();
  result.endpoints = endpoints;
  result.nodes = static_cast<int>(catalog_->size());
  result.total_requests = fleet.total_requests();
  result.events_processed = simulator.events_processed();

  std::vector<models::ModelId> workload_models;
  workload_models.reserve(scenario.workloads.size());
  for (const auto& workload : scenario.workloads) {
    workload_models.push_back(workload.model);
  }

  // Endpoint rows via the shared extractor, then the fleet-wide merge.
  Histogram merged_e2e;
  std::uint64_t total_completed = 0, total_compliant = 0, total_latencies = 0;
  double total_violations = 0.0;
  std::array<double, telemetry::kViolationCauseCount> causes{};
  double cost = 0.0, power = 0.0, gpu_util = 0.0, cpu_util = 0.0;
  std::uint64_t cold_starts = 0;
  result.per_endpoint.reserve(slots);
  for (int e = 0; e < endpoints; ++e) {
    ExtractOptions extract;
    extract.scheme = scheme_name(scheme);
    extract.trace_label = scenario.name + "-e" + std::to_string(e);
    extract.goodput_window_ms = scenario.goodput_window_ms;
    result.per_endpoint.push_back(extract_run_metrics(
        fleet.framework(e), fleet.cluster(e), workload_models,
        calibrations[static_cast<std::size_t>(e)].get(), extract));

    auto& framework = fleet.framework(e);
    result.unserved += framework.unserved_requests();
    for (const auto model : workload_models) {
      merged_e2e.merge(framework.latency(model).e2e());
      total_latencies += framework.latency(model).count();
      total_completed += framework.slo(model).total();
      total_compliant += framework.slo(model).compliant();
    }
    const auto& combined = result.per_endpoint.back().combined;
    total_violations += combined.slo_violations;
    for (std::size_t cause = 0; cause < causes.size(); ++cause) {
      causes[cause] += combined.violations_by_cause[cause];
    }
    cost += combined.cost;
    power += combined.average_power;
    gpu_util += combined.gpu_utilization;
    cpu_util += combined.cpu_utilization;
    cold_starts += combined.cold_starts;
  }

  telemetry::RunMetrics& fleet_row = result.combined;
  fleet_row.scheme = scheme_name(scheme);
  fleet_row.workload = "fleet";
  fleet_row.trace = scenario.name + "-fleet";
  fleet_row.requests = total_completed;
  fleet_row.slo_compliance =
      total_completed == 0 ? 1.0
                           : static_cast<double>(total_compliant) /
                                 static_cast<double>(total_completed);
  fleet_row.mean_latency_ms = merged_e2e.mean();
  const double merged_qs[] = {0.5, 0.95, 0.99};
  const auto merged_percentiles = merged_e2e.quantiles(merged_qs);
  fleet_row.p50_latency_ms = merged_percentiles[0];
  fleet_row.p95_latency_ms = merged_percentiles[1];
  fleet_row.p99_latency_ms = merged_percentiles[2];
  fleet_row.slo_violations = total_violations;
  fleet_row.violations_by_cause = causes;
  fleet_row.cost = cost;
  fleet_row.cold_starts = cold_starts;
  // Power sums across endpoints (they hold disjoint nodes); utilization is
  // the across-endpoint mean.
  fleet_row.average_power = power;
  fleet_row.gpu_utilization = endpoints == 0 ? 0.0 : gpu_util / endpoints;
  fleet_row.cpu_utilization = endpoints == 0 ? 0.0 : cpu_util / endpoints;
  (void)total_latencies;

  return result;
}

}  // namespace paldia::exp
