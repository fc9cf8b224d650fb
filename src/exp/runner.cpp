#include "src/exp/runner.hpp"

#include <algorithm>
#include <optional>

#include "src/baselines/oracle.hpp"
#include "src/exp/summary.hpp"
#include "src/obs/attribution.hpp"
#include "src/obs/calibration.hpp"
#include "src/telemetry/cost_tracker.hpp"
#include "src/trace/trace_ops.hpp"

namespace paldia::exp {

Runner::Runner(const models::Zoo& zoo, const hw::Catalog& catalog, ThreadPool* pool,
               SchemeFactoryOptions options)
    : zoo_(&zoo),
      catalog_(&catalog),
      profile_(catalog),
      factory_(zoo, catalog, profile_, pool, options),
      pool_(pool) {}

RunResult Runner::run_once(const Scenario& scenario, SchemeId scheme,
                           std::uint64_t seed, bool keep_cdf,
                           obs::Tracer* tracer, obs::RollupAggregator* rollup,
                           obs::Profiler* profiler,
                           obs::HealthEngine* health) const {
  sim::Simulator simulator;
  Rng rng(seed);
  // Declared before the cluster so the cluster is destroyed first: batches
  // still on a device at the drain cap hold request blocks carved from the
  // framework's arena (core::Fleet::Endpoint keeps the same order).
  std::optional<core::Framework> framework;
  cluster::Cluster cluster(simulator, rng.fork("cluster"), *zoo_, *catalog_);

  auto policy = factory_.make(scheme);
  if (auto* oracle = dynamic_cast<baselines::OraclePolicy*>(policy.get())) {
    for (const auto& workload : scenario.workloads) {
      oracle->reveal_trace(workload.model, workload.trace);
    }
  }

  core::FrameworkConfig config = scenario.framework;
  if (!config.initial_node.has_value()) {
    config.initial_node = factory_.initial_node(scheme);
  }
  config.tracer = tracer;
  config.request_pool = factory_.options().request_pool;
  config.rollup = rollup;
  config.profiler = profiler;
  config.health = health;

  // Violation attribution runs on every repetition (it feeds the per-cause
  // RunMetrics); its latency gauges join a timeline-recording tracer's.
  // Calibration needs the tracer's decision sweeps, but the tracker itself
  // is harmless without them.
  obs::AttributionEngine attribution(*zoo_,
                                     tracer != nullptr && tracer->timeline());
  obs::CalibrationTracker::Config calibration_config;
  if (!scenario.workloads.empty()) {
    calibration_config.slo_ms = kTimeNever;
    for (const auto& workload : scenario.workloads) {
      calibration_config.slo_ms = std::min(calibration_config.slo_ms,
                                           zoo_->spec(workload.model).slo_ms);
    }
  }
  obs::CalibrationTracker calibration(calibration_config);
  config.attribution = &attribution;
  config.calibration = &calibration;
  framework.emplace(simulator, cluster, std::move(policy), rng.fork("framework"),
                    *zoo_, config);
  for (const auto& workload : scenario.workloads) {
    framework->add_workload(workload.model, workload.trace);
  }
  if (scenario.failures) framework->enable_failures(*scenario.failures);
  if (!scenario.coresidents.empty()) {
    framework->enable_host_interference(scenario.coresidents);
  }

  framework->run();

  ExtractOptions extract;
  extract.scheme = scheme_name(scheme);
  extract.trace_label = scenario.name;
  extract.goodput_window_ms = scenario.goodput_window_ms;
  extract.keep_cdf = keep_cdf;
  std::vector<models::ModelId> workload_models;
  workload_models.reserve(scenario.workloads.size());
  for (const auto& workload : scenario.workloads) {
    workload_models.push_back(workload.model);
  }
  return extract_run_metrics(*framework, cluster, workload_models, &calibration,
                             extract);
}

RunResult extract_run_metrics(core::Framework& framework,
                              cluster::Cluster& cluster,
                              const std::vector<models::ModelId>& workloads,
                              obs::CalibrationTracker* calibration,
                              const ExtractOptions& options) {
  RunResult result;
  Histogram merged_e2e;
  telemetry::TailBreakdown combined_breakdown;
  std::uint64_t total_requests = 0, total_compliant = 0, total_completed = 0;

  for (const auto model : workloads) {
    const auto& latency = framework.latency(model);
    const auto& slo = framework.slo(model);
    telemetry::RunMetrics metrics;
    metrics.scheme = options.scheme;
    metrics.workload = std::string(models::model_id_name(model));
    metrics.trace = options.trace_label;
    metrics.requests = slo.total();
    metrics.slo_compliance = slo.compliance();
    metrics.mean_latency_ms = latency.mean_ms();
    const auto percentiles = latency.percentiles();  // one histogram scan
    metrics.p50_latency_ms = percentiles.p50_ms;
    metrics.p95_latency_ms = percentiles.p95_ms;
    metrics.p99_latency_ms = percentiles.p99_ms;
    metrics.p99_breakdown = latency.breakdown_at(0.99);

    // The goodput window covers the busiest span *including its ramp* —
    // surge-onset violations land on the rising edge, just before the peak
    // itself (Fig. 7a measures "periods of highest request traffic").
    auto window = trace::busiest_window(framework.workload_trace(model),
                                        options.goodput_window_ms);
    window.start_ms = std::max(0.0, window.start_ms - options.goodput_window_ms);
    metrics.goodput_rps = slo.goodput_rps(window.start_ms, window.end_ms);
    metrics.offered_rps = slo.arrival_rps(window.start_ms, window.end_ms);
    metrics.slo_violations = static_cast<double>(slo.violations());
    for (int cause = 0; cause < telemetry::kViolationCauseCount; ++cause) {
      metrics.violations_by_cause[static_cast<std::size_t>(cause)] =
          static_cast<double>(
              slo.violation_causes()[static_cast<std::size_t>(cause)]);
    }
    if (options.keep_cdf) metrics.latency_cdf = latency.cdf();

    merged_e2e.merge(latency.e2e());
    const auto weight = static_cast<double>(latency.count());
    combined_breakdown.latency_ms += metrics.p99_breakdown.latency_ms * weight;
    combined_breakdown.solo_ms += metrics.p99_breakdown.solo_ms * weight;
    combined_breakdown.queue_ms += metrics.p99_breakdown.queue_ms * weight;
    combined_breakdown.interference_ms +=
        metrics.p99_breakdown.interference_ms * weight;
    combined_breakdown.cold_start_ms += metrics.p99_breakdown.cold_start_ms * weight;
    combined_breakdown.samples += metrics.p99_breakdown.samples;
    total_requests += latency.count();
    total_compliant += slo.compliant();
    total_completed += slo.total();

    result.per_workload.push_back(std::move(metrics));
  }

  telemetry::RunMetrics combined = result.per_workload.front();
  combined.workload = workloads.size() == 1
                          ? result.per_workload.front().workload
                          : "combined";
  combined.requests = total_completed;
  combined.slo_compliance =
      total_completed == 0
          ? 1.0
          : static_cast<double>(total_compliant) / static_cast<double>(total_completed);
  combined.mean_latency_ms = merged_e2e.mean();
  const double merged_qs[] = {0.5, 0.95, 0.99};
  const auto merged_percentiles = merged_e2e.quantiles(merged_qs);
  combined.p50_latency_ms = merged_percentiles[0];
  combined.p95_latency_ms = merged_percentiles[1];
  combined.p99_latency_ms = merged_percentiles[2];
  if (total_requests > 0) {
    // Components are request-weighted means of the workloads' tail
    // breakdowns; samples counts the tail samples those breakdowns averaged,
    // as it does in a workload row.
    const auto weight = static_cast<double>(total_requests);
    combined.p99_breakdown = telemetry::TailBreakdown{
        combined_breakdown.latency_ms / weight, combined_breakdown.solo_ms / weight,
        combined_breakdown.queue_ms / weight,
        combined_breakdown.interference_ms / weight,
        combined_breakdown.cold_start_ms / weight, combined_breakdown.samples};
  }

  telemetry::CostTracker cost(cluster);
  combined.cost = cost.total();
  combined.average_power = framework.power().average_power();
  combined.gpu_utilization = framework.util().gpu_utilization();
  combined.cpu_utilization = framework.util().cpu_utilization();
  combined.cold_starts = cluster.total_cold_starts();

  // Attribution/calibration roll-ups: the combined violation count is the
  // per-workload sum (classification is exhaustive, so the per-cause counts
  // sum back to it); calibration is framework-wide, mirrored into every
  // workload row like the other shared columns.
  combined.slo_violations = 0.0;
  combined.violations_by_cause.fill(0.0);
  for (const auto& per_workload : result.per_workload) {
    combined.slo_violations += per_workload.slo_violations;
    for (std::size_t cause = 0; cause < combined.violations_by_cause.size();
         ++cause) {
      combined.violations_by_cause[cause] += per_workload.violations_by_cause[cause];
    }
  }
  if (calibration != nullptr) {
    const obs::CalibrationSummary calibration_summary = calibration->finalize();
    combined.tmax_mape = calibration_summary.tmax_mape;
    combined.tmax_coverage = calibration_summary.tmax_coverage;
    combined.rate_mape = calibration_summary.rate.mape;
    combined.calib_intervals =
        static_cast<double>(calibration_summary.intervals_total);
  }

  // Sweep-memoization totals are policy-wide (the cache is shared across
  // workloads), mirrored into every row like the other shared columns.
  const perfmodel::TmaxCacheStats cache_stats =
      framework.policy().tmax_cache_stats();
  combined.tmax_cache_hits = static_cast<double>(cache_stats.hits);
  combined.tmax_cache_misses = static_cast<double>(cache_stats.misses);
  combined.tmax_cache_hit_rate = cache_stats.hit_rate();

  for (auto& per_workload : result.per_workload) {
    per_workload.cost = combined.cost;
    per_workload.average_power = combined.average_power;
    per_workload.gpu_utilization = combined.gpu_utilization;
    per_workload.cpu_utilization = combined.cpu_utilization;
    per_workload.cold_starts = combined.cold_starts;
    per_workload.tmax_mape = combined.tmax_mape;
    per_workload.tmax_coverage = combined.tmax_coverage;
    per_workload.rate_mape = combined.rate_mape;
    per_workload.calib_intervals = combined.calib_intervals;
    per_workload.tmax_cache_hits = combined.tmax_cache_hits;
    per_workload.tmax_cache_misses = combined.tmax_cache_misses;
    per_workload.tmax_cache_hit_rate = combined.tmax_cache_hit_rate;
  }
  result.combined = std::move(combined);
  return result;
}

RunResult Runner::run(const Scenario& scenario, SchemeId scheme, bool keep_cdf) const {
  std::vector<RunResult> repetitions(static_cast<std::size_t>(scenario.repetitions));
  auto run_rep = [&](std::size_t rep) {
    const std::uint64_t seed =
        scenario.base_seed + 0x9e3779b9ull * static_cast<std::uint64_t>(rep + 1) +
        static_cast<std::uint64_t>(scheme) * 0x51ull;
    repetitions[rep] = run_once(scenario, scheme, seed, keep_cdf && rep == 0);
  };
  // Repetitions are independent simulations (per-rep seed, all mutable state
  // local to run_once), so they can run concurrently. Each result lands in
  // its slot and the outlier-filtered aggregation sees the serial order —
  // the metrics are bit-identical with and without the pool.
  if (pool_ != nullptr && repetitions.size() > 1) {
    pool_->parallel_for(repetitions.size(), run_rep);
  } else {
    for (std::size_t rep = 0; rep < repetitions.size(); ++rep) run_rep(rep);
  }
  return aggregate_runs(repetitions);
}

RunResult Runner::run(const Scenario& scenario, SchemeId scheme, obs::RunTrace& trace,
                      bool keep_cdf) const {
  const auto reps = static_cast<std::size_t>(scenario.repetitions);
  std::vector<RunResult> repetitions(reps);
  // Observation slots are allocated up front, one per repetition, so
  // concurrent repetitions never share state and exporters can walk the
  // slots in repetition order regardless of which thread filled them.
  allocate_trace_slots(trace, factory_.options(), reps);
  auto run_rep = [&](std::size_t rep) {
    const std::uint64_t seed =
        scenario.base_seed + 0x9e3779b9ull * static_cast<std::uint64_t>(rep + 1) +
        static_cast<std::uint64_t>(scheme) * 0x51ull;
    repetitions[rep] =
        run_once(scenario, scheme, seed, keep_cdf && rep == 0,
                 trace.capture_events ? trace.reps[rep].get() : nullptr,
                 trace.collect_rollups ? trace.rollups[rep].get() : nullptr,
                 trace.profile ? trace.profiles[rep].get() : nullptr,
                 trace.collect_health ? trace.healths[rep].get() : nullptr);
  };
  if (pool_ != nullptr && repetitions.size() > 1) {
    pool_->parallel_for(repetitions.size(), run_rep);
  } else {
    for (std::size_t rep = 0; rep < repetitions.size(); ++rep) run_rep(rep);
  }
  return aggregate_runs(repetitions);
}

void allocate_trace_slots(obs::RunTrace& trace, const SchemeFactoryOptions& options,
                          std::size_t slots) {
  trace.config.sample_rate = options.sample_rate;
  trace.health_config.slo_target = options.slo_target;
  trace.health_config.fast_window_ms = options.burn_fast_ms;
  trace.health_config.slow_window_ms = options.burn_slow_ms;
  trace.reps.clear();
  trace.rollups.clear();
  trace.profiles.clear();
  trace.healths.clear();
  for (std::size_t slot = 0; slot < slots; ++slot) {
    if (trace.capture_events) {
      trace.reps.push_back(std::make_unique<obs::Tracer>(trace.config));
    }
    if (trace.collect_rollups) {
      trace.rollups.push_back(
          std::make_unique<obs::RollupAggregator>(trace.rollup_config));
    }
    if (trace.profile) trace.profiles.push_back(std::make_unique<obs::Profiler>());
    if (trace.collect_health) {
      trace.healths.push_back(
          std::make_unique<obs::HealthEngine>(trace.health_config));
    }
  }
}

double sweep_offline_spatial_fraction(const Scenario& scenario, int steps) {
  // Pilot sweep: evaluate each candidate split with a single repetition and
  // keep the one with the highest overall SLO compliance (ties -> lower
  // tail latency), exactly how the paper's Offline Hybrid was tuned.
  double best_fraction = 0.5;
  double best_compliance = -1.0;
  double best_p99 = 0.0;
  for (int i = 0; i <= steps; ++i) {
    const double fraction = static_cast<double>(i) / steps;
    SchemeFactoryOptions options;
    options.offline_spatial_fraction = fraction;
    Runner pilot(models::Zoo::instance(), hw::Catalog::instance(), nullptr, options);
    const auto result =
        pilot.run_once(scenario, SchemeId::kOfflineHybrid, scenario.base_seed);
    const double compliance = result.combined.slo_compliance;
    if (compliance > best_compliance ||
        (compliance == best_compliance && result.combined.p99_latency_ms < best_p99)) {
      best_compliance = compliance;
      best_p99 = result.combined.p99_latency_ms;
      best_fraction = fraction;
    }
  }
  return best_fraction;
}

}  // namespace paldia::exp
