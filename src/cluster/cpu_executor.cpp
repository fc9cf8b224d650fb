#include "src/cluster/cpu_executor.hpp"

#include <cmath>
#include <utility>

namespace paldia::cluster {

CpuExecutor::CpuExecutor(sim::Simulator& simulator, const hw::CpuSpec& spec, Rng rng)
    : simulator_(&simulator), spec_(&spec), rng_(rng) {}

DurationMs CpuExecutor::busy_time_ms() const {
  if (running_) return busy_time_ms_ + (simulator_->now() - busy_since_ms_);
  return busy_time_ms_;
}

void CpuExecutor::submit(CpuJob job) {
  queue_.emplace_back(std::move(job), simulator_->now());
  start_next();
}

void CpuExecutor::start_next() {
  if (running_ || queue_.empty()) return;
  auto [job, submit_ms] = std::move(queue_.front());
  queue_.pop_front();

  auto running = std::make_unique<Running>();
  running->submit_ms = submit_ms;
  running->start_ms = simulator_->now();
  const double jitter = std::exp(rng_.normal(0.0, jitter_sigma_));
  running->work_ms = job.solo_ms * jitter * interference_factor_;
  running->job = std::move(job);
  running_ = std::move(running);
  busy_since_ms_ = simulator_->now();

  completion_event_ = simulator_->schedule_in(
      running_->work_ms, [this] { complete_running(); });
}

void CpuExecutor::complete_running() {
  if (!running_) return;
  ExecutionReport report;
  report.submit_ms = running_->submit_ms;
  report.start_ms = running_->start_ms;
  report.end_ms = simulator_->now();
  // Isolated time excludes the co-resident interference stretch, so the
  // report's interference_ms() surfaces it.
  report.solo_ms = running_->work_ms / interference_factor_;
  auto job = std::move(running_->job);
  busy_time_ms_ += simulator_->now() - busy_since_ms_;
  running_.reset();
  if (job.on_complete) job.on_complete(report);
  start_next();
}

void CpuExecutor::fail_all() {
  completion_event_.cancel();
  auto fail_one = [this](CpuJob& job, TimeMs submit_ms, TimeMs start_ms,
                         bool started) {
    ExecutionReport report;
    report.submit_ms = submit_ms;
    report.start_ms = start_ms;
    report.end_ms = simulator_->now();
    report.failed = true;
    report.started = started;
    if (job.on_complete) job.on_complete(report);
  };
  if (running_) {
    busy_time_ms_ += simulator_->now() - busy_since_ms_;
    fail_one(running_->job, running_->submit_ms, running_->start_ms,
             /*started=*/true);
    running_.reset();
  }
  // Queued jobs never began: start_ms == end_ms, so the whole wait counts
  // as queue time and execution time stays zero.
  for (auto& [job, submit_ms] : queue_) {
    fail_one(job, submit_ms, simulator_->now(), /*started=*/false);
  }
  queue_.clear();
}

}  // namespace paldia::cluster
