#include "src/cluster/gpu_device.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace paldia::cluster {

GpuDevice::GpuDevice(sim::Simulator& simulator, const hw::GpuSpec& spec, Rng rng,
                     GpuDeviceConfig config)
    : simulator_(&simulator), spec_(&spec), rng_(rng), config_(config) {
  last_advance_ms_ = simulator_->now();
}

double GpuDevice::slowdown(double fbr_sum, double beta) {
  if (fbr_sum <= 1.0) return 1.0;
  return fbr_sum * (1.0 + beta * (fbr_sum - 1.0));
}

double GpuDevice::current_fbr_sum() const {
  double sum = 0.0;
  for (const auto& resident : spatial_) sum += resident.job.fbr;
  if (serial_running_) sum += serial_running_->job.fbr;
  return sum;
}

double GpuDevice::current_compute_sum() const {
  double sum = 0.0;
  for (const auto& resident : spatial_) sum += resident.job.compute;
  if (serial_running_) sum += serial_running_->job.compute;
  return sum;
}

GpuDevice::Speeds GpuDevice::speeds() const {
  const double compute_stretch = slowdown(current_compute_sum(), config_.beta);
  const double bandwidth_stretch = slowdown(current_fbr_sum(), config_.beta);
  // The time-shared lane has scheduling priority for bandwidth (it runs
  // "exclusively" in the Eq. 1 sense) but cannot escape SM contention:
  // compute is one physical pool.
  return Speeds{1.0 / std::max(compute_stretch, bandwidth_stretch),
                1.0 / compute_stretch};
}

void GpuDevice::note_busy_transition() {
  const bool now_busy = busy();
  const TimeMs now = simulator_->now();
  if (now_busy && !was_busy_) {
    busy_since_ms_ = now;
  } else if (!now_busy && was_busy_) {
    busy_time_ms_ += now - busy_since_ms_;
  }
  was_busy_ = now_busy;
}

DurationMs GpuDevice::busy_time_ms() const {
  if (was_busy_) return busy_time_ms_ + (simulator_->now() - busy_since_ms_);
  return busy_time_ms_;
}

void GpuDevice::advance_to_now() {
  const TimeMs now = simulator_->now();
  const DurationMs elapsed = now - last_advance_ms_;
  if (elapsed > 0.0) {
    // Speeds were constant since the last membership change, so one linear
    // step is exact. speeds() reads the *current* membership, which has
    // not changed since last_advance_ms_.
    const Speeds speed = speeds();
    for (auto& resident : spatial_) {
      resident.remaining_work_ms -= elapsed * speed.spatial;
    }
    if (serial_running_) {
      serial_running_->remaining_work_ms -= elapsed * speed.serial;
    }
  }
  last_advance_ms_ = now;
}

void GpuDevice::reschedule_completion() {
  completion_event_.cancel();
  if (!busy()) return;
  const Speeds speed = speeds();
  double earliest = std::numeric_limits<double>::infinity();
  for (const auto& resident : spatial_) {
    earliest = std::min(earliest, resident.remaining_work_ms / speed.spatial);
  }
  if (serial_running_) {
    earliest = std::min(earliest, serial_running_->remaining_work_ms / speed.serial);
  }
  if (!std::isfinite(earliest)) return;
  earliest = std::max(earliest, 0.0);
  completion_event_ = simulator_->schedule_in(
      earliest, [this] { on_completion_event(); });
}

void GpuDevice::on_completion_event() {
  advance_to_now();
  // Collect all jobs whose work is (numerically) done. Several can finish at
  // the same instant. Finished spatial residents leave in lane order and the
  // others close ranks in order, so every later sum runs in the same order.
  constexpr double kEpsilon = 1e-6;
  auto kept = spatial_.begin();
  for (auto& resident : spatial_) {
    if (resident.remaining_work_ms <= kEpsilon) {
      finished_.push_back(std::move(resident));
    } else {
      if (&*kept != &resident) *kept = std::move(resident);
      ++kept;
    }
  }
  spatial_.erase(kept, spatial_.end());
  if (serial_running_ && serial_running_->remaining_work_ms <= kEpsilon) {
    finished_.push_back(std::move(*serial_running_));
    serial_running_.reset();
  }
  finish_all(/*failed=*/false);

  start_next_serial();
  start_queued_spatial();
  note_busy_transition();
  reschedule_completion();
}

void GpuDevice::finish_all(bool failed) {
  // The callbacks re-enter submit_spatial, so they run from a swapped-out
  // list; its buffer comes back for the next completion.
  std::vector<Resident> finished;
  finished.swap(finished_);
  for (auto& resident : finished) {
    ExecutionReport report;
    report.submit_ms = resident.job.submit_time_tag;
    report.start_ms = resident.start_ms;
    report.end_ms = simulator_->now();
    report.solo_ms = resident.total_work_ms;
    report.failed = failed;
    if (resident.job.on_complete) resident.job.on_complete(report);
  }
  finished.clear();
  finished_.swap(finished);
}

void GpuDevice::start(Resident& resident, GpuJob&& job) {
  const double jitter = std::exp(rng_.normal(0.0, config_.jitter_sigma));
  resident.start_ms = simulator_->now();
  resident.total_work_ms = job.solo_ms * jitter + config_.launch_overhead_ms;
  resident.remaining_work_ms = resident.total_work_ms;
  resident.job = std::move(job);
}

void GpuDevice::start_next_serial() {
  if (serial_running_ || serial_queue_.empty()) return;
  start(serial_running_.emplace(), std::move(serial_queue_.front()));
  serial_queue_.pop_front();
}

void GpuDevice::start_queued_spatial() {
  while (static_cast<int>(spatial_.size()) < config_.max_spatial_jobs &&
         !spatial_wait_queue_.empty()) {
    start(spatial_.emplace_back(), std::move(spatial_wait_queue_.front()));
    spatial_wait_queue_.pop_front();
  }
}

void GpuDevice::submit_spatial(GpuJob&& job) {
  advance_to_now();
  job.submit_time_tag = simulator_->now();
  if (spatial_wait_queue_.empty() &&
      static_cast<int>(spatial_.size()) < config_.max_spatial_jobs) {
    // Room under the MPS limit and nobody waiting: start it in the lane
    // directly (the queue would start it at once, with the same draw).
    start(spatial_.emplace_back(), std::move(job));
  } else {
    spatial_wait_queue_.push_back(std::move(job));
    start_queued_spatial();
  }
  note_busy_transition();
  reschedule_completion();
}

void GpuDevice::submit_serial(GpuJob&& job) {
  advance_to_now();
  job.submit_time_tag = simulator_->now();
  serial_queue_.push_back(std::move(job));
  start_next_serial();
  note_busy_transition();
  reschedule_completion();
}

void GpuDevice::fail_all() {
  advance_to_now();
  for (auto& resident : spatial_) finished_.push_back(std::move(resident));
  spatial_.clear();
  if (serial_running_) {
    finished_.push_back(std::move(*serial_running_));
    serial_running_.reset();
  }
  finish_all(/*failed=*/true);

  auto fail_queued = [this](std::deque<GpuJob>& queue) {
    for (auto& job : queue) {
      // These batches never reached a lane: start_ms == end_ms keeps their
      // execution time at zero and attributes the entire wait since
      // submission to the queue component.
      ExecutionReport report;
      report.submit_ms = job.submit_time_tag;
      report.start_ms = simulator_->now();
      report.end_ms = report.start_ms;
      report.solo_ms = 0.0;
      report.failed = true;
      report.started = false;
      if (job.on_complete) job.on_complete(report);
    }
    queue.clear();
  };
  fail_queued(spatial_wait_queue_);
  fail_queued(serial_queue_);

  note_busy_transition();
  reschedule_completion();
}

}  // namespace paldia::cluster
