// Runs (scenario x scheme) experiments and extracts RunMetrics.
#pragma once

#include <vector>

#include "src/exp/scenario.hpp"
#include "src/exp/scheme_factory.hpp"
#include "src/obs/tracer.hpp"
#include "src/telemetry/metrics.hpp"

namespace paldia::obs {
class CalibrationTracker;
}  // namespace paldia::obs

namespace paldia::exp {

struct RunResult {
  std::vector<telemetry::RunMetrics> per_workload;
  telemetry::RunMetrics combined;
};

/// Labels and knobs for extract_run_metrics.
struct ExtractOptions {
  std::string scheme;       // RunMetrics::scheme column
  std::string trace_label;  // RunMetrics::trace column (scenario name, or a
                            // fleet endpoint label like "azure-fleet-e003")
  DurationMs goodput_window_ms = 10'000.0;
  bool keep_cdf = false;    // retain the merged latency CDF per workload
};

/// Pull one completed Framework run into RunMetrics rows: one per workload
/// (model) plus the merged "combined" row with cluster-wide cost / power /
/// utilization / calibration columns. Shared by Runner::run_once and the
/// fleet driver (which calls it once per endpoint). `calibration` may be
/// null (fleet endpoints without decision sweeps); the tmax columns then
/// stay zero.
RunResult extract_run_metrics(core::Framework& framework,
                              cluster::Cluster& cluster,
                              const std::vector<models::ModelId>& workloads,
                              obs::CalibrationTracker* calibration,
                              const ExtractOptions& options);

class Runner {
 public:
  Runner(const models::Zoo& zoo, const hw::Catalog& catalog, ThreadPool* pool = nullptr,
         SchemeFactoryOptions options = {});

  /// One repetition with an explicit seed. `tracer` (optional) receives the
  /// repetition's lifecycle spans / decision log / counter samples; `rollup`
  /// (optional) folds every completion into windowed cells; `profiler`
  /// (optional) collects the simulator's self-profile; `health` (optional)
  /// evaluates the SLO health detectors every monitor tick.
  RunResult run_once(const Scenario& scenario, SchemeId scheme,
                     std::uint64_t seed, bool keep_cdf = false,
                     obs::Tracer* tracer = nullptr,
                     obs::RollupAggregator* rollup = nullptr,
                     obs::Profiler* profiler = nullptr,
                     obs::HealthEngine* health = nullptr) const;

  /// All repetitions, aggregated per the paper's rule (mean with >2.5 sigma
  /// outliers dropped). keep_cdf retains the latency CDF of the first rep.
  /// With a pool, repetitions run concurrently (each rep derives its seed
  /// independently and lands in a fixed slot before aggregation, so the
  /// metrics are bit-identical to the serial order).
  RunResult run(const Scenario& scenario, SchemeId scheme,
                bool keep_cdf = false) const;

  /// run() that also captures per-repetition observations. `trace` gets one
  /// slot per repetition for each enabled stream (tracers unless
  /// capture_events is false, rollup aggregators when collect_rollups,
  /// profilers when profile), allocated up front and filled in place —
  /// exporters walk the slots in repetition order, so serialized output is
  /// byte-identical however many pool threads ran the reps. The tracer
  /// configs take their sample_rate from SchemeFactoryOptions (the
  /// --sample-rate flag is the single knob).
  RunResult run(const Scenario& scenario, SchemeId scheme, obs::RunTrace& trace,
                bool keep_cdf = false) const;

  const SchemeFactory& factory() const { return factory_; }

 private:
  const models::Zoo* zoo_;
  const hw::Catalog* catalog_;
  models::ProfileTable profile_;
  SchemeFactory factory_;
  ThreadPool* pool_;
};

/// Size `trace` for one run: copy the tracer sample rate, the health SLO
/// target and the burn windows from `options` (the CLI flags are the single
/// knobs; the other config fields keep the trace's values), then allocate
/// `slots` fresh slots for each enabled stream, in slot order. Runner::run
/// has one slot per repetition, FleetSim::run one per endpoint.
void allocate_trace_slots(obs::RunTrace& trace, const SchemeFactoryOptions& options,
                          std::size_t slots);

/// Offline sweep for the Offline Hybrid scheme (Fig. 1): run pilot
/// experiments across spatial fractions on the pinned node and return the
/// fraction with the highest overall SLO compliance.
double sweep_offline_spatial_fraction(const Scenario& scenario, int steps = 10);

}  // namespace paldia::exp
