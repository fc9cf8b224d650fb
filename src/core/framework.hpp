// The serverless framework harness (Figure 2): wires Gateway, Dispatcher,
// Hardware Selection (via the policy), Autoscaler, Batcher and Job
// Distribution into the simulator and runs one experiment: a set of
// (model, trace) workloads served by one SchedulerPolicy on the simulated
// cluster, with full telemetry.
//
// All schemes share this harness; they differ only in the policy object
// (Section V: the baselines are "schemes which employ the request serving
// policies of" INFless/Llama/Molecule).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/cluster/cluster.hpp"
#include "src/cluster/failure_injector.hpp"
#include "src/cluster/host_interference.hpp"
#include "src/core/autoscaler.hpp"
#include "src/core/batcher.hpp"
#include "src/core/gateway.hpp"
#include "src/core/job_distributor.hpp"
#include "src/core/scheduler_policy.hpp"
#include "src/telemetry/latency_recorder.hpp"
#include "src/telemetry/power_tracker.hpp"
#include "src/telemetry/slo_tracker.hpp"
#include "src/telemetry/util_tracker.hpp"
#include "src/trace/trace.hpp"

namespace paldia::obs {
class AttributionEngine;
class CalibrationTracker;
class HealthEngine;
class Profiler;
class RollupAggregator;
class Tracer;
}  // namespace paldia::obs

namespace paldia::core {

struct FrameworkConfig {
  DurationMs dispatch_interval_ms = 20.0;
  DurationMs monitor_interval_ms = 500.0;  // Algorithm 1's W
  BatcherConfig batcher;
  AutoscalerConfig autoscaler;
  /// Node to hold (warm) at t = 0. Policies that would pick a different
  /// node converge within a few monitor intervals.
  std::optional<hw::NodeType> initial_node;
  /// Containers pre-warmed per workload on the initial node.
  int initial_containers = 2;
  /// Old node keeps serving this long after a switch before release
  /// (in-flight batches drain; the paper charges transition overlap).
  DurationMs release_grace_ms = 3000.0;
  /// Hard cap on post-trace drain; requests still unserved then are counted
  /// as SLO violations.
  DurationMs max_drain_ms = minutes(2);
  /// Observability sink (null = tracing disabled). The framework wires it
  /// into every component; call sites pay a single branch when it is null.
  obs::Tracer* tracer = nullptr;
  /// SLO-violation attribution (null = disabled, single-branch cost). Works
  /// with or without a tracer; per-cause totals land in the per-model
  /// SloTrackers and the engine's own aggregates.
  obs::AttributionEngine* attribution = nullptr;
  /// Predicted-vs-observed T_max / demand-forecast calibration. Only fed
  /// when a tracer is present (the candidate sweep lives in its decision
  /// records).
  obs::CalibrationTracker* calibration = nullptr;
  /// Pool the request path's buffers in the per-repetition RequestArena
  /// (default). False = --no-request-pool bypass: same block API, but every
  /// buffer is dropped on release and re-allocated on acquire, giving a
  /// plain-vector reference run whose exports must stay byte-identical.
  bool request_pool = true;
  /// Windowed rollup aggregation (null = disabled, single-branch cost).
  /// Fed every completion — independent of trace sampling — plus monitor-
  /// tick gauges and unserved counts, so fleet runs export compliance and
  /// attribution in fixed memory without a full trace.
  obs::RollupAggregator* rollup = nullptr;
  /// Simulator self-profiling (null = disabled). The framework wires it
  /// into the simulator's drain phase and times its own dispatch/monitor
  /// ticks and the Algorithm 1 sweep.
  obs::Profiler* profiler = nullptr;
  /// Online SLO health engine (null = disabled, single-branch cost). Fed
  /// every completion (with the attribution verdict), monitor-tick gauges,
  /// and drain-cap unserved counts; evaluated once per monitor tick and
  /// finalized at the run end.
  obs::HealthEngine* health = nullptr;
  /// Fleet endpoint this serving loop belongs to. Tags every allocated id
  /// (requests, batches, containers) in the high bits so ids stay globally
  /// unique across gateways; 0 (standalone runs) is bit-identical to the
  /// untagged allocator.
  int endpoint_id = 0;
};

class Framework {
 public:
  Framework(sim::Simulator& simulator, cluster::Cluster& cluster,
            std::unique_ptr<SchedulerPolicy> policy, Rng rng,
            const models::Zoo& zoo = models::Zoo::instance(),
            FrameworkConfig config = {});

  /// Register a workload: the model served under the given arrival trace.
  /// The framework keeps its own copy of the trace (callers may pass
  /// temporaries).
  void add_workload(models::ModelId model, trace::Trace trace);

  /// Enable the Fig. 13b failure scenario.
  void enable_failures(cluster::FailureInjectorConfig config);

  /// Enable the Table III co-resident interference scenario.
  void enable_host_interference(std::vector<cluster::CoResident> coresidents);

  /// Run the experiment to completion (trace + drain). Returns the
  /// simulated end time. Equivalent to begin_run(); run_until(hard_end());
  /// finish_run(end) — fleets use the split form so many endpoints share
  /// one run_until.
  TimeMs run();

  /// Arm the experiment without advancing time: initial node + prewarm,
  /// trace injections, tracker/tick scheduling. The caller then drives the
  /// shared simulator (to at least hard_end()) and calls finish_run().
  void begin_run();

  /// Latest simulated time this run can produce events for (trace end plus
  /// the drain cap). Valid after add_workload().
  TimeMs hard_end() const { return trace_end_ms_ + config_.max_drain_ms; }

  /// Close out the run at simulated time `end`: count drain-cap leftovers
  /// as unserved violations, release held nodes, flush final counters,
  /// finalize health.
  void finish_run(TimeMs end);

  // --- Telemetry access (valid after run()) --------------------------------
  const telemetry::LatencyRecorder& latency(models::ModelId model) const;
  const telemetry::SloTracker& slo(models::ModelId model) const;
  /// The workload's arrival trace as registered (a fleet endpoint's is its
  /// routed sub-trace). Metric extraction reads it for the goodput window.
  const trace::Trace& workload_trace(models::ModelId model) const {
    return workload(model).trace;
  }
  const telemetry::PowerTracker& power() const { return *power_; }
  const telemetry::UtilTracker& util() const { return *util_; }
  std::uint64_t unserved_requests() const { return unserved_; }
  hw::NodeType active_node() const { return active_node_; }
  int hardware_switches() const { return hardware_switches_; }

  SchedulerPolicy& policy() { return *policy_; }
  cluster::Cluster& cluster() { return *cluster_; }

 private:
  struct Workload {
    models::ModelId model{};
    trace::Trace trace;
    std::unique_ptr<telemetry::LatencyRecorder> latency;
    std::unique_ptr<telemetry::SloTracker> slo;
  };

  // Covers procurement (~4 s) plus container warmup (~2.5 s) so capacity is
  // ready when the predicted demand arrives (Section IV-A).
  static constexpr DurationMs kPredictionHorizonMs = 7000.0;

  Workload& workload(models::ModelId model);
  const Workload& workload(models::ModelId model) const;

  DemandSnapshot snapshot(const Workload& workload, TimeMs now);
  void schedule_injections(const Workload& workload);
  /// Schedules the next non-zero trace epoch at or after `from_epoch`; the
  /// injection event re-invokes this for its successor (chained, so only
  /// one injection event per workload is ever resident).
  void schedule_injection_epoch(const Workload& workload,
                                std::size_t from_epoch);
  void dispatch_tick();
  void monitor_tick();
  void predictive_tick();
  void begin_switch(hw::NodeType target);
  void complete_request(const cluster::Request& request,
                        const cluster::ExecutionReport& report,
                        hw::NodeType node);
  void handle_failure();
  void handle_recovery();
  bool drained(TimeMs now) const;

  sim::Simulator* simulator_;
  cluster::Cluster* cluster_;
  std::unique_ptr<SchedulerPolicy> policy_;
  const models::Zoo* zoo_;
  FrameworkConfig config_;
  Rng rng_;
  obs::Tracer* tracer_ = nullptr;
  obs::AttributionEngine* attribution_ = nullptr;
  obs::CalibrationTracker* calibration_ = nullptr;
  obs::RollupAggregator* rollup_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  obs::HealthEngine* health_ = nullptr;

  cluster::RequestArena request_arena_;  // must outlive gateway_/distributor_
  Gateway gateway_;
  Batcher batcher_;
  Autoscaler autoscaler_;
  cluster::IdAllocator ids_;
  std::unique_ptr<JobDistributor> distributor_;

  std::vector<Workload> workloads_;
  std::unique_ptr<telemetry::PowerTracker> power_;
  std::unique_ptr<telemetry::UtilTracker> util_;

  hw::NodeType active_node_{};
  bool switch_in_progress_ = false;
  hw::NodeType pending_target_{};
  std::uint64_t switch_generation_ = 0;
  int hardware_switches_ = 0;
  TimeMs trace_end_ms_ = 0.0;
  std::uint64_t unserved_ = 0;

  std::optional<cluster::FailureInjectorConfig> failure_config_;
  std::unique_ptr<cluster::FailureInjector> failure_injector_;
  std::unique_ptr<cluster::HostInterference> host_interference_;
  std::vector<cluster::CoResident> coresidents_;
};

}  // namespace paldia::core
