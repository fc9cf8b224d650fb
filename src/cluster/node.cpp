#include "src/cluster/node.hpp"

#include <cassert>

#include "src/common/log.hpp"

namespace paldia::cluster {

Node::Node(sim::Simulator& simulator, NodeId id, hw::NodeType type, Rng rng,
           const models::Zoo& zoo, const models::ProfileTable& profile,
           NodeConfig config)
    : simulator_(&simulator),
      id_(id),
      type_(type),
      spec_(&profile.catalog().spec(type)),
      zoo_(&zoo),
      profile_(&profile),
      config_(config),
      rng_(rng) {
  if (spec_->is_gpu()) {
    gpu_device_ = std::make_unique<GpuDevice>(simulator, *spec_->gpu,
                                              rng_.fork("gpu"), config_.gpu);
  } else {
    cpu_executor_ =
        std::make_unique<CpuExecutor>(simulator, spec_->cpu, rng_.fork("cpu"));
  }
}

void Node::fail() {
  if (!up_) return;
  up_ = false;
  // Containers and the wait queue die first: the device's failure
  // callbacks pump the wait queue, and anything still in it would be
  // resubmitted to the dying device.
  containers_.clear();
  auto doomed = std::move(container_wait_queue_);
  container_wait_queue_.clear();
  if (gpu_device_) gpu_device_->fail_all();
  if (cpu_executor_) cpu_executor_->fail_all();
  for (auto& pending : doomed) {
    // Still waiting for a container — never started; the full wait is
    // queue time (start_ms == end_ms, no execution component).
    ExecutionReport report;
    report.submit_ms = pending.submitted_ms;
    report.start_ms = simulator_->now();
    report.end_ms = report.start_ms;
    report.failed = true;
    report.started = false;
    if (pending.request.on_complete) pending.request.on_complete(report);
  }
}

void Node::recover() { up_ = true; }

ContainerId Node::spawn_container(models::ModelId model, bool prewarmed) {
  assert(up_);
  Container container;
  container.id = ContainerId{next_container_id_++};
  container.model = model;
  container.spawned_ms = simulator_->now();
  container.last_used_ms = simulator_->now();
  const ContainerId id = container.id;
  if (prewarmed) {
    container.state = ContainerState::kWarm;
    container.ready_ms = simulator_->now();
    containers_.emplace(id, container);
    pump_wait_queue();
    return id;
  }
  container.state = ContainerState::kColdStarting;
  const DurationMs cold =
      spec_->is_gpu() ? config_.gpu_cold_start_ms : config_.cpu_cold_start_ms;
  container.ready_ms = simulator_->now() + cold;
  containers_.emplace(id, container);
  ++cold_starts_;
  simulator_->schedule_at(
      container.ready_ms,
      [this, id] {
        auto it = containers_.find(id);
        if (it == containers_.end()) return;  // terminated or node failed
        if (it->second.state == ContainerState::kColdStarting) {
          it->second.state = ContainerState::kWarm;
        }
        on_container_ready();
      });
  return id;
}

bool Node::terminate_idle_container(models::ModelId model) {
  for (auto& [id, container] : containers_) {
    if (container.model == model && container.state == ContainerState::kWarm) {
      containers_.erase(id);
      return true;
    }
  }
  return false;
}

int Node::container_count(models::ModelId model) const {
  int count = 0;
  for (const auto& [id, container] : containers_) {
    if (container.model == model && container.state != ContainerState::kTerminated) {
      ++count;
    }
  }
  return count;
}

int Node::warm_idle_container_count(models::ModelId model) const {
  int count = 0;
  for (const auto& [id, container] : containers_) {
    if (container.model == model && container.state == ContainerState::kWarm &&
        container.warm_at(simulator_->now())) {
      ++count;
    }
  }
  return count;
}

int Node::idle_since_count(models::ModelId model, TimeMs cutoff) const {
  int count = 0;
  for (const auto& [id, container] : containers_) {
    if (container.model == model && container.state == ContainerState::kWarm &&
        container.last_used_ms <= cutoff) {
      ++count;
    }
  }
  return count;
}

Container* Node::find_idle_container(models::ModelId model) {
  Container* best = nullptr;
  for (auto& [id, container] : containers_) {
    if (container.model != model) continue;
    if (container.state != ContainerState::kWarm) continue;
    if (best == nullptr || container.last_used_ms > best->last_used_ms) {
      best = &container;  // most-recently-used first keeps others cold-idle
    }
  }
  return best;
}

int Node::container_wait_queue_length() const {
  return static_cast<int>(container_wait_queue_.size());
}

void Node::execute(ExecRequest request) {
  assert(up_);
  PendingExec pending{std::move(request), simulator_->now()};

  if (pending.request.mode == ShareMode::kSpatial) {
    // Spatial batches each need their own container (paper Section IV-C).
    Container* container = find_idle_container(pending.request.model);
    if (container == nullptr) {
      container_wait_queue_.push_back(std::move(pending));
      return;
    }
    start_exec(std::move(pending), container);
    return;
  }

  // Temporal / CPU batches reuse a warm container when one exists; when the
  // model has no container at all, one must cold start first.
  Container* container = find_idle_container(pending.request.model);
  if (container == nullptr && container_count(pending.request.model) == 0) {
    spawn_container(pending.request.model);
  }
  if (container == nullptr) {
    container_wait_queue_.push_back(std::move(pending));
    return;
  }
  start_exec(std::move(pending), container);
}

void Node::start_exec(PendingExec pending, Container* container) {
  const TimeMs node_submit_ms = pending.submitted_ms;
  const DurationMs cold_wait =
      container->was_cold_when_assigned
          ? std::max(0.0, container->ready_ms - node_submit_ms)
          : 0.0;
  container->last_used_ms = simulator_->now();
  const ContainerId container_id = container->id;
  const bool spatial = pending.request.mode == ShareMode::kSpatial;
  if (spatial) container->state = ContainerState::kBusy;

  const auto& model = zoo_->spec(pending.request.model);
  const auto entry = profile_->lookup(model, type_, pending.request.batch_size);

  auto finalize = [this, node_submit_ms, cold_wait, container_id, spatial,
                   on_complete = std::move(pending.request.on_complete)](
                      const ExecutionReport& device_report) mutable {
    ExecutionReport report = device_report;
    report.submit_ms = node_submit_ms;  // queue time includes container wait
    report.cold_start_ms = cold_wait;
    if (spatial) {
      auto it = containers_.find(container_id);
      if (it != containers_.end() && it->second.state == ContainerState::kBusy) {
        it->second.state = ContainerState::kWarm;
        it->second.last_used_ms = simulator_->now();
      }
      pump_wait_queue();
    }
    if (on_complete) on_complete(report);
  };
  // this + 3 scalars + container id + the wrapped BatchCompletionFn must fit
  // DeviceCompletionFn's inline budget — no per-batch allocation.
  static_assert(sizeof(finalize) <= 160);

  if (spec_->is_gpu()) {
    GpuJob job;
    job.batch = pending.request.batch;
    job.solo_ms = entry.solo_ms * gpu_interference_factor_;
    job.fbr = entry.fbr;
    job.compute = entry.compute;
    job.on_complete = std::move(finalize);
    if (pending.request.mode == ShareMode::kSpatial) {
      gpu_device_->submit_spatial(std::move(job));
    } else {
      gpu_device_->submit_serial(std::move(job));
    }
  } else {
    CpuJob job;
    job.batch = pending.request.batch;
    job.solo_ms = entry.solo_ms;
    job.on_complete = std::move(finalize);
    cpu_executor_->submit(std::move(job));
  }
}

void Node::pump_wait_queue() {
  if (!up_) return;
  while (!container_wait_queue_.empty()) {
    auto& front = container_wait_queue_.front();
    Container* container = find_idle_container(front.request.model);
    if (container == nullptr) return;
    container->was_cold_when_assigned =
        simulator_->now() - container->spawned_ms <
        (spec_->is_gpu() ? config_.gpu_cold_start_ms : config_.cpu_cold_start_ms) + 1.0;
    PendingExec pending = std::move(front);
    container_wait_queue_.pop_front();
    start_exec(std::move(pending), container);
  }
}

void Node::on_container_ready() { pump_wait_queue(); }

DurationMs Node::device_busy_time_ms() const {
  if (gpu_device_) return gpu_device_->busy_time_ms();
  if (cpu_executor_) return cpu_executor_->busy_time_ms();
  return 0.0;
}

double Node::current_fbr_sum() const {
  return gpu_device_ ? gpu_device_->current_fbr_sum() : 0.0;
}

void Node::set_host_interference(double cpu_factor, double gpu_factor) {
  if (cpu_executor_) cpu_executor_->set_interference_factor(cpu_factor);
  gpu_interference_factor_ = gpu_factor;
}

}  // namespace paldia::cluster
