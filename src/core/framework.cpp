#include "src/core/framework.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/common/log.hpp"
#include "src/obs/attribution.hpp"
#include "src/obs/calibration.hpp"
#include "src/obs/health.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/rollup.hpp"
#include "src/obs/tracer.hpp"

namespace paldia::core {

Framework::Framework(sim::Simulator& simulator, cluster::Cluster& cluster,
                     std::unique_ptr<SchedulerPolicy> policy, Rng rng,
                     const models::Zoo& zoo, FrameworkConfig config)
    : simulator_(&simulator),
      cluster_(&cluster),
      policy_(std::move(policy)),
      zoo_(&zoo),
      config_(config),
      rng_(rng),
      tracer_(config.tracer),
      attribution_(config.attribution),
      calibration_(config.calibration),
      rollup_(config.rollup),
      profiler_(config.profiler),
      health_(config.health),
      request_arena_(config.request_pool),
      gateway_(rng.fork("gateway"), &request_arena_, config.endpoint_id),
      batcher_(config.batcher),
      autoscaler_(config.autoscaler),
      ids_(config.endpoint_id) {
  simulator.set_profiler(profiler_);
  gateway_.set_tracer(tracer_);
  batcher_.set_tracer(tracer_);
  autoscaler_.set_tracer(tracer_);
  policy_->set_tracer(tracer_);
  if (tracer_ != nullptr) {
    // SLOs drive the sampler's violator-retention; without them every
    // request classifies compliant and sampling degrades to plain 1-in-N.
    std::array<DurationMs, models::kModelCount> slos{};
    for (int m = 0; m < models::kModelCount; ++m) {
      slos[static_cast<std::size_t>(m)] =
          zoo.spec(static_cast<models::ModelId>(m)).slo_ms;
    }
    tracer_->set_model_slos(slos);
  }
  distributor_ = std::make_unique<JobDistributor>(
      batcher_, ids_,
      [this](const cluster::Request& request, const cluster::ExecutionReport& report,
             hw::NodeType node) { complete_request(request, report, node); },
      [this](models::ModelId model, cluster::RequestBlock requests) {
        gateway_.requeue(model, std::move(requests));
        arm_dispatch();
      });
  distributor_->set_tracer(tracer_);
  distributor_->set_attribution(attribution_);
  distributor_->set_calibration(calibration_);
  power_ = std::make_unique<telemetry::PowerTracker>(simulator, cluster);
  util_ = std::make_unique<telemetry::UtilTracker>(simulator, cluster);
}

void Framework::add_workload(models::ModelId model, trace::Trace trace) {
  Workload workload;
  workload.model = model;
  workload.trace = std::move(trace);
  // Completions never exceed the routed requests, so a reservoir of that
  // size (when below the default) keeps every record, as the default would.
  const std::size_t capacity = static_cast<std::size_t>(
      std::min<std::uint64_t>(telemetry::LatencyRecorder::kDefaultReservoirCapacity,
                              workload.trace.total_requests()));
  workload.latency = std::make_unique<telemetry::LatencyRecorder>(
      capacity, rng_.fork("latency-" + std::string(models::model_id_name(model))).seed());
  workload.slo =
      std::make_unique<telemetry::SloTracker>(zoo_->spec(model).slo_ms);
  trace_end_ms_ = std::max(trace_end_ms_, workload.trace.duration_ms());
  workloads_.push_back(std::move(workload));
  gateway_.add_workload(model);
}

void Framework::enable_failures(cluster::FailureInjectorConfig config) {
  failure_config_ = config;
}

void Framework::enable_host_interference(std::vector<cluster::CoResident> coresidents) {
  coresidents_ = std::move(coresidents);
}

Framework::Workload& Framework::workload(models::ModelId model) {
  for (auto& workload : workloads_) {
    if (workload.model == model) return workload;
  }
  assert(false && "unknown workload");
  return workloads_.front();
}

const Framework::Workload& Framework::workload(models::ModelId model) const {
  for (const auto& workload : workloads_) {
    if (workload.model == model) return workload;
  }
  assert(false && "unknown workload");
  return workloads_.front();
}

const telemetry::LatencyRecorder& Framework::latency(models::ModelId model) const {
  return *workload(model).latency;
}

const telemetry::SloTracker& Framework::slo(models::ModelId model) const {
  return *workload(model).slo;
}

DemandSnapshot Framework::snapshot(const Workload& workload, TimeMs now) {
  DemandSnapshot snapshot;
  snapshot.model = workload.model;
  snapshot.observed_rps = gateway_.observed_rate(workload.model, now);
  // Predictor state is only updated at monitor ticks; between ticks predict
  // from the last level. The horizon matches the procurement delay
  // (Section IV-A: hardware for requests ~4 s ahead).
  snapshot.predicted_rps =
      gateway_.predictor(workload.model).predict(now, kPredictionHorizonMs);
  snapshot.predicted_rps = std::max(snapshot.predicted_rps, snapshot.observed_rps);
  snapshot.smoothed_rps = gateway_.predictor(workload.model).level();
  snapshot.backlog = gateway_.pending(workload.model, now);
  return snapshot;
}

void Framework::schedule_injections(const Workload& workload) {
  // Chained: only the next non-zero epoch's injection is resident at any
  // time, so the queue holds O(workloads) injection events instead of
  // O(trace epochs). Pre-scheduling the whole trace would keep every
  // far-future epoch resident for the entire run.
  schedule_injection_epoch(workload, 0);
}

void Framework::schedule_injection_epoch(const Workload& workload,
                                         std::size_t from_epoch) {
  const auto& trace = workload.trace;
  std::size_t epoch = from_epoch;
  while (epoch < trace.epoch_count() && trace.count_at(epoch) == 0) ++epoch;
  if (epoch >= trace.epoch_count()) return;
  const auto model = workload.model;
  const auto count = trace.count_at(epoch);
  const TimeMs start = static_cast<double>(epoch) * trace.epoch_ms();
  simulator_->schedule_at(
      start,
      [this, &workload, model, count, start, epoch] {
        // Stamp the successor before anything else this firing does, so the
        // chain's sequence numbers stay as small as this timestamp allows.
        schedule_injection_epoch(workload, epoch + 1);
        gateway_.inject(model, static_cast<int>(count), start,
                        workload.trace.epoch_ms());
        auto& slo = *this->workload(model).slo;
        // Arrival seconds are attributed per request for the goodput series.
        for (std::uint32_t i = 0; i < count; ++i) {
          slo.record_arrival(start +
                             workload.trace.epoch_ms() * (i + 0.5) / count);
        }
        arm_dispatch();
      });
}

void Framework::dispatch_tick() {
  obs::ScopedPhase prof(profiler_, obs::ProfilePhase::kDispatchTick);
  const TimeMs now = simulator_->now();
  if (!cluster_->node(active_node_).is_up()) return;  // failover in flight
  for (auto& workload : workloads_) {
    const auto model_id = workload.model;
    const auto& model = zoo_->spec(model_id);
    const int pending = gateway_.pending(model_id, now);
    if (pending <= 0) continue;

    const DemandSnapshot demand = snapshot(workload, now);
    SplitPlan plan = policy_->plan_dispatch(demand, active_node_, now);
    const int target = std::min(std::max(1, plan.batch_size), model.max_batch);
    if (target > pending) {
      workload.fill_target = target;
      workload.fill_node = active_node_;
    }
    if (!batcher_.should_dispatch(pending, target,
                                  gateway_.oldest_age(model_id, now))) {
      continue;
    }

    auto& node = cluster_->node(active_node_);
    autoscaler_.ensure(node, model_id, policy_->desired_containers(plan));
    auto requests = gateway_.take(model_id, pending, now);
    distributor_->dispatch(node, plan, std::move(requests), now);
  }
}

void Framework::arm_dispatch() {
  const TimeMs now = simulator_->now();
  std::int64_t first = static_cast<std::int64_t>(std::ceil(now / kDispatchPeriodMs));
  if (static_cast<double>(first) * kDispatchPeriodMs < now) ++first;
  first = std::max(first, next_dispatch_slot_);
  const bool node_up = cluster_->node(active_node_).is_up();
  std::int64_t slot = Batcher::kNoSlot;
  for (const auto& workload : workloads_) {
    const TimeMs oldest = gateway_.queued_arrival(workload.model, 0);
    if (oldest == kTimeNever) continue;  // nothing queued: no tick needed
    if (!node_up) {
      // Ticks are no-ops until the node recovers or a switch lands; keep
      // the plain cadence rather than track either.
      slot = first;
      break;
    }
    const int target = workload.fill_node == active_node_ ? workload.fill_target : 1;
    slot = std::min(slot, batcher_.first_dispatch_slot(
                              first, kDispatchPeriodMs, oldest,
                              gateway_.queued_arrival(
                                  workload.model, static_cast<std::size_t>(target - 1))));
  }
  if (slot == Batcher::kNoSlot ||
      static_cast<double>(slot) * kDispatchPeriodMs > hard_end()) {
    return;
  }
  if (dispatch_slot_ <= slot) return;  // the pending tick comes no later
  dispatch_event_.cancel();
  dispatch_slot_ = slot;
  dispatch_event_ = simulator_->schedule_at(static_cast<double>(slot) * kDispatchPeriodMs,
                                            [this] { fire_dispatch(); });
}

void Framework::fire_dispatch() {
  next_dispatch_slot_ = dispatch_slot_ + 1;
  dispatch_slot_ = Batcher::kNoSlot;
  dispatch_tick();
  arm_dispatch();
}

void Framework::monitor_tick() {
  obs::ScopedPhase prof(profiler_, obs::ProfilePhase::kMonitorTick);
  const TimeMs now = simulator_->now();
  // The span, attribution gauges, gauge sweep and per-tick counter samples
  // feed only the Chrome trace; the decision record also feeds the decision
  // log and the report.
  const bool timeline = tracer_ != nullptr && tracer_->timeline();
  if (timeline) tracer_->begin_span("monitor_tick", now);
  std::vector<DemandSnapshot> demand;
  demand.reserve(workloads_.size());
  for (auto& workload : workloads_) {
    // Feed the predictor with the trailing observed rate, then snapshot.
    gateway_.predictor(workload.model)
        .observe(now, gateway_.observed_rate(workload.model, now));
    demand.push_back(snapshot(workload, now));
  }
  // Open the tick's decision record before select_hardware so the policy can
  // enrich it with the candidate sweep; seal it once we know whether a
  // reconfiguration actually started.
  obs::DecisionRecord* record = nullptr;
  if (tracer_ != nullptr) {
    record = tracer_->begin_decision(now, active_node_);
    if (record != nullptr) {
      // Cluster-wide demand the decision was made against, for calibration
      // against the arrivals that actually materialize one horizon later.
      for (const auto& snapshot : demand) {
        record->predicted_rps += snapshot.predicted_rps;
        record->observed_rps += snapshot.observed_rps;
      }
    }
  }
  hw::NodeType chosen;
  {
    obs::ScopedPhase sweep(profiler_, obs::ProfilePhase::kSelectionSweep);
    chosen = policy_->select_hardware(demand, active_node_, now);
  }
  bool switch_begun = false;
  if (switch_in_progress_) {
    // A transition is underway; only interrupt it to escalate — a surge
    // front can outgrow the in-flight target before it even warms up.
    // "Stay on the current node" (chosen == active) is the policy's normal
    // hysteresis output, not an escalation — the pending transition
    // proceeds.
    if (chosen != pending_target_ && chosen != active_node_ &&
        cluster_->catalog().spec(chosen).price_per_hour >
            cluster_->catalog().spec(pending_target_).price_per_hour) {
      begin_switch(chosen);
      switch_begun = true;
    }
  } else if (chosen != active_node_) {
    begin_switch(chosen);
    switch_begun = true;
  }
  if (tracer_ != nullptr) {
    tracer_->end_decision(chosen, switch_begun);
    if (calibration_ != nullptr && record != nullptr && record->has_sweep) {
      // The final candidate's prediction is what the following interval
      // gets to answer; the sweep always contains the chosen node.
      for (const auto& candidate : record->candidates) {
        if (candidate.node != record->final_choice) continue;
        calibration_->on_decision(now, static_cast<int>(candidate.node),
                                  candidate.t_max_ms, candidate.best_y,
                                  candidate.feasible, record->predicted_rps,
                                  record->observed_rps);
        break;
      }
    }
  }
  if (timeline) {
    if (attribution_ != nullptr) attribution_->sample(*tracer_, now);
    // Gauge sweep: queue depths and container counts per model, plus the
    // cluster-wide saturation signals, then the cumulative counters.
    auto& node = cluster_->node(active_node_);
    std::uint64_t cold_starts = 0;
    // Every node the cluster actually has: generated catalogs run larger
    // than Table II and fleet slice catalogs smaller.
    for (int i = 0; i < static_cast<int>(cluster_->catalog().size()); ++i) {
      cold_starts += cluster_->node(hw::NodeType(i)).cold_starts();
    }
    for (const auto& workload : workloads_) {
      tracer_->gauge("queue_depth", now,
                     static_cast<double>(gateway_.pending(workload.model, now)),
                     static_cast<int>(workload.model));
      tracer_->gauge("containers", now,
                     static_cast<double>(node.container_count(workload.model)),
                     static_cast<int>(workload.model));
    }
    tracer_->gauge("in_flight_batches", now,
                   static_cast<double>(distributor_->in_flight()));
    tracer_->gauge("container_wait_queue", now,
                   static_cast<double>(node.container_wait_queue_length()));
    tracer_->gauge("cold_starts_total", now, static_cast<double>(cold_starts));
    tracer_->sample_counters(now);
    tracer_->end_span("monitor_tick", now);
  }
  if (rollup_ != nullptr) {
    // Same gauge sweep, folded into the windowed cells instead of the event
    // stream — independent of the tracer so rollup-only runs still see it.
    for (const auto& workload : workloads_) {
      rollup_->observe_queue_depth(
          now, static_cast<int>(workload.model), static_cast<int>(active_node_),
          static_cast<double>(gateway_.pending(workload.model, now)));
    }
    rollup_->observe_in_flight(now, static_cast<int>(active_node_),
                               static_cast<double>(distributor_->in_flight()));
  }
  if (health_ != nullptr) {
    // Detector input mirrors the rollup gauge sweep; the evaluation itself
    // runs on the same simulated-time cadence for every thread count.
    for (const auto& workload : workloads_) {
      health_->observe_queue_depth(
          now, static_cast<int>(workload.model), static_cast<int>(active_node_),
          static_cast<double>(gateway_.pending(workload.model, now)));
    }
    health_->observe_in_flight(now, static_cast<int>(active_node_),
                               static_cast<double>(distributor_->in_flight()));
    health_->evaluate(now);
  }
}

void Framework::begin_switch(hw::NodeType target) {
  switch_in_progress_ = true;
  pending_target_ = target;
  const std::uint64_t generation = ++switch_generation_;
  if (tracer_ != nullptr) {
    tracer_->instant("switch_begin", simulator_->now(), target);
    tracer_->count("switches_initiated");
  }
  if (attribution_ != nullptr) attribution_->on_switch_begin(simulator_->now());
  cluster_->acquire(target, [this, target, generation](cluster::Node& node) {
    if (generation != switch_generation_) {
      // Superseded by an escalation; drop the stale acquisition.
      if (target != active_node_ && target != pending_target_) {
        cluster_->release(target);
      }
      return;
    }
    if (!node.is_up()) {
      switch_in_progress_ = false;
      return;
    }
    // Spawn containers on the new node sized for the predicted load, then
    // reroute only once they are warm (reconfigure_HW: the current hardware
    // keeps serving during the transition).
    const TimeMs now = simulator_->now();
    for (auto& workload : workloads_) {
      DemandSnapshot demand = snapshot(workload, now);
      const auto& model = zoo_->spec(workload.model);
      demand.backlog = std::max(
          demand.backlog,
          static_cast<int>(std::ceil(demand.predicted_rps * model.slo_ms /
                                     kMsPerSecond)));
      const SplitPlan plan = policy_->plan_dispatch(demand, target, now);
      const int desired =
          std::max(config_.initial_containers, policy_->desired_containers(plan));
      autoscaler_.ensure(node, workload.model, desired);
    }
    const DurationMs warmup = cluster_->catalog().spec(target).is_gpu()
                                  ? cluster_->config().node.gpu_cold_start_ms
                                  : cluster_->config().node.cpu_cold_start_ms;
    simulator_->schedule_in(
        warmup,
        [this, target, generation] {
          if (generation != switch_generation_) {
            if (target != active_node_ && target != pending_target_) {
              cluster_->release(target);
            }
            return;
          }
          const hw::NodeType old_node = active_node_;
          active_node_ = target;
          ++hardware_switches_;
          switch_in_progress_ = false;
          if (tracer_ != nullptr) {
            tracer_->instant("switch_active", simulator_->now(), target);
            tracer_->count("hardware_switches");
          }
          if (attribution_ != nullptr) {
            attribution_->on_switch_active(simulator_->now());
          }
          // Relinquish the old node after its in-flight work drains.
          simulator_->schedule_in(
              config_.release_grace_ms,
              [this, old_node] {
                if (old_node != active_node_) cluster_->release(old_node);
              });
          arm_dispatch();  // new node: fill targets start over
        });
  });
}

void Framework::predictive_tick() {
  // Predictive scale-up + delayed termination (Section IV-C).
  const TimeMs now = simulator_->now();
  auto& node = cluster_->node(active_node_);
  if (!node.is_up()) return;
  for (auto& workload : workloads_) {
    DemandSnapshot demand = snapshot(workload, now);
    // Size for the predicted load over one SLO window.
    const auto& model = zoo_->spec(workload.model);
    const int predicted_n = static_cast<int>(
        std::ceil(demand.predicted_rps * model.slo_ms / kMsPerSecond));
    DemandSnapshot future = demand;
    future.backlog = predicted_n;
    const SplitPlan plan = policy_->plan_dispatch(future, active_node_, now);
    const int needed = policy_->desired_containers(plan);
    autoscaler_.ensure(node, workload.model, needed);
    autoscaler_.reap(node, workload.model, needed, now);
  }
}

void Framework::complete_request(const cluster::Request& request,
                                 const cluster::ExecutionReport& report,
                                 hw::NodeType node) {
  auto& workload = this->workload(request.model);
  telemetry::RequestOutcome outcome;
  outcome.latency_ms = report.end_ms - request.arrival_ms;
  outcome.solo_ms = report.solo_ms;
  outcome.cold_start_ms = report.cold_start_ms;
  outcome.interference_ms = std::max(0.0, report.interference_ms());
  workload.latency->record(outcome);
  workload.slo->record_completion(request.arrival_ms, report.end_ms);
  std::optional<telemetry::ViolationCause> cause;
  if (attribution_ != nullptr || rollup_ != nullptr || health_ != nullptr) {
    obs::LifecycleSample sample;
    sample.request_id = request.id.value;
    sample.model = static_cast<int>(request.model);
    sample.node = static_cast<int>(node);
    sample.arrival_ms = request.arrival_ms;
    sample.submit_ms = report.submit_ms;
    sample.start_ms = report.start_ms;
    sample.end_ms = report.end_ms;
    sample.solo_ms = report.solo_ms;
    sample.interference_ms = std::max(0.0, report.interference_ms());
    sample.cold_ms = report.cold_start_ms;
    if (attribution_ != nullptr) {
      cause = attribution_->observe_request(sample);
      if (cause) workload.slo->record_violation_cause(*cause);
    } else if (outcome.latency_ms > zoo_->spec(request.model).slo_ms) {
      // Rollup without attribution: classify from the sample alone (the
      // retried/blackout flags the engine would supply default to false).
      cause = obs::classify_violation(sample);
    }
  }
  if (rollup_ != nullptr) {
    rollup_->observe_completion(report.end_ms, static_cast<int>(request.model),
                                static_cast<int>(node), outcome.latency_ms,
                                cause);
  }
  if (health_ != nullptr) {
    health_->observe_completion(report.end_ms, static_cast<int>(request.model),
                                static_cast<int>(node), outcome.latency_ms,
                                cause);
  }
}

void Framework::handle_failure() {
  const hw::NodeType failed = active_node_;
  if (tracer_ != nullptr) {
    tracer_->instant("node_failure", simulator_->now(), failed);
    tracer_->count("node_failures");
  }
  if (attribution_ != nullptr) attribution_->on_node_failure(simulator_->now());
  cluster_->fail_node(failed);
  cluster_->release(failed);
  const hw::NodeType fallback = policy_->on_node_failure(failed);
  if (fallback == failed) return;
  switch_in_progress_ = false;  // failover preempts any pending switch
  begin_switch(fallback);
}

void Framework::handle_recovery() {
  // Recovered node stays released; the policy re-selects it at the next
  // monitor tick if it is still the right choice.
  for (int i = 0; i < static_cast<int>(cluster_->catalog().size()); ++i) {
    auto& node = cluster_->node(hw::NodeType(i));
    if (!node.is_up()) {
      node.recover();
      if (tracer_ != nullptr) {
        tracer_->instant("node_recovered", simulator_->now(), hw::NodeType(i));
        tracer_->count("node_recoveries");
      }
    }
  }
}

void Framework::begin_run() {
  assert(!workloads_.empty());

  // Fresh slab state per repetition: any block leaked from a previous run
  // (none are expected) is invalidated rather than corrupting the free list.
  request_arena_.reset();

  // Initial hardware: warm node + containers at t = 0.
  active_node_ = config_.initial_node.value_or(hw::NodeType::kC6i_2xlarge);
  cluster_->acquire_immediately(active_node_);
  for (const auto& workload : workloads_) {
    auto& node = cluster_->node(active_node_);
    for (int i = 0; i < config_.initial_containers; ++i) {
      node.spawn_container(workload.model, /*prewarmed=*/true);
    }
  }

  for (const auto& workload : workloads_) schedule_injections(workload);

  power_->arm(hard_end());
  util_->arm(hard_end());

  if (failure_config_) {
    failure_injector_ = std::make_unique<cluster::FailureInjector>(
        *simulator_, *failure_config_, [this] { handle_failure(); },
        [this] { handle_recovery(); });
    failure_injector_->arm(trace_end_ms_);
  }
  if (!coresidents_.empty()) {
    host_interference_ = std::make_unique<cluster::HostInterference>(
        *simulator_, coresidents_, rng_.fork("host-interference"));
    for (int i = 0; i < static_cast<int>(cluster_->catalog().size()); ++i) {
      host_interference_->attach(cluster_->node(hw::NodeType(i)));
    }
    host_interference_->arm(trace_end_ms_);
  }

  // The dispatch timer fires only at the grid slots where some workload's
  // batcher can fire (arm_dispatch), never past hard_end(); once the trace
  // is over and the queues are empty nothing re-arms it. This is exactly a
  // tick at every slot, as the repeating 20 ms tick used to run:
  //  - A skipped slot's tick has no observable effect. Either nothing has
  //    arrived, so it returns before planning, or the batcher waits on a
  //    target above the backlog. plan_dispatch's contract makes that
  //    target the workload's learned fill_target and the call free of side
  //    effects.
  //  - So every dispatch happens at the same slot, with the same snapshot
  //    and the same plan.
  //  - Same-instant order is kept. The repeating tick was stamped one
  //    period before its slot. The timer is stamped by the previous tick or
  //    by the event that queued the work, at most ~170 ms before its slot
  //    (a 100 ms epoch plus the 50 ms wait, rounded up to the grid). Every
  //    other event of this serving loop that lands on a slot is stamped at
  //    least 100 ms ahead and before any timer for that slot: injections
  //    (the handler stamps its successor before it re-arms, and a timer
  //    armed before an epoch is injected wakes within 60 ms of its start),
  //    monitor, predictive, power and util ticks, container readiness,
  //    switch warm-up and failure points. Only float-timed device
  //    completions could land exactly on a slot in between.
  // The first tick is armed at t = 0 here, where the repeating tick was.
  dispatch_slot_ = 0;
  next_dispatch_slot_ = 0;
  dispatch_event_ = simulator_->schedule_at(0.0, [this] { fire_dispatch(); });
  simulator_->schedule_repeating(
      config_.monitor_interval_ms, config_.monitor_interval_ms,
      [this] {
        monitor_tick();
        return simulator_->now() + config_.monitor_interval_ms <= trace_end_ms_;
      });
  simulator_->schedule_repeating(
      config_.autoscaler.predictive_interval_ms,
      config_.autoscaler.predictive_interval_ms,
      [this] {
        predictive_tick();
        return simulator_->now() + config_.autoscaler.predictive_interval_ms <=
               trace_end_ms_;
      });
}

TimeMs Framework::run() {
  begin_run();
  const TimeMs end = simulator_->run_until(hard_end());
  finish_run(end);
  return end;
}

void Framework::finish_run(TimeMs end) {
  // Requests still unserved at the drain cap are SLO violations: those
  // queued at the gateway and those in batches still on a device or
  // waiting for a container.
  for (auto& workload : workloads_) {
    const int queued = gateway_.pending_total(workload.model);
    const int leftover = queued + distributor_->in_flight_requests(workload.model);
    for (int i = 0; i < leftover; ++i) {
      workload.slo->record_completion(0.0, kTimeNever);
      workload.slo->record_violation_cause(telemetry::ViolationCause::kUnserved);
    }
    if (attribution_ != nullptr && leftover > 0) {
      attribution_->record_unserved(static_cast<std::uint64_t>(leftover));
    }
    if (rollup_ != nullptr && leftover > 0) {
      rollup_->observe_unserved(end, static_cast<int>(workload.model),
                                static_cast<std::uint64_t>(leftover));
    }
    if (health_ != nullptr && leftover > 0) {
      health_->observe_unserved(end, static_cast<int>(workload.model),
                                static_cast<std::uint64_t>(leftover));
    }
    if (tracer_ != nullptr && leftover > 0) {
      // Per-model counter reaches the event stream via the final
      // sample_counters(end) below; the analyzer reads it back for the
      // unserved slice of the attribution report.
      const std::string key =
          "unserved:" + std::string(models::model_id_name(workload.model));
      tracer_->count(key.c_str(), static_cast<double>(leftover));
    }
    unserved_ += static_cast<std::uint64_t>(leftover);
    // Drop them so repeated run() calls (not supported anyway) don't leak.
    auto rest = gateway_.take(workload.model, queued, end);
    (void)rest;
  }

  // Close hold intervals so cost reflects the experiment span.
  for (const auto type : cluster_->held_types()) cluster_->release(type);
  // Final counter snapshot: totals accumulated after the last monitor tick
  // (the drain phase) still reach the event stream.
  if (tracer_ != nullptr) tracer_->sample_counters(end);
  // One last detector pass over the drain tail, then close still-firing
  // incidents so every alert carries a resolve timestamp.
  if (health_ != nullptr) health_->finalize(end);
}

}  // namespace paldia::core
