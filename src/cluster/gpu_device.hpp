// Simulated GPU with hybrid sharing, substituting real MPS + time sharing
// (see DESIGN.md section 2).
//
// Two lanes:
//  * Spatial (MPS) lane — every submitted batch starts immediately and runs
//    concurrently. Progress follows a processor-sharing model derived from
//    Prophet's bandwidth-contention formulation: with total fractional
//    bandwidth demand S = sum of FBRs of all resident jobs, each spatial
//    job runs at speed 1 / slowdown(S), where
//        slowdown(S) = 1                          for S <= 1
//                    = S * (1 + beta * (S - 1))   for S  > 1.
//    The linear term is exactly the paper's Eq. 1 regime (k identical jobs
//    of FBR F finish in Solo * k * F when k*F > 1); the beta term adds the
//    superlinear cache/scheduling degradation that real MPS exhibits when
//    a GPU is grossly oversubscribed — Prophet's model is only validated
//    for small co-location degrees. beta defaults to 0.25.
//  * Serial (time-shared) lane — FIFO; one batch executes at a time at full
//    solo speed (its SM partition is dedicated), but its bandwidth demand
//    still counts towards S seen by spatial jobs.
//
// Whenever lane membership changes, remaining work is advanced and the
// earliest completion event is rescheduled. Per-batch launch overhead and
// a small lognormal execution jitter make the device a *ground truth* that
// the scheduler's closed-form model (perfmodel/) only approximates — the
// paper reports <4% model error, and tests/perfmodel/model_vs_device_test.cpp
// checks ours stays in that band.
//
// Residents are held by value (a vector for the spatial lane, an optional
// slot for the serial lane), so a batch costs no allocation and its
// completion callback is moved, never copied, from submission to its call.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "src/cluster/request.hpp"
#include "src/common/rng.hpp"
#include "src/hw/node_spec.hpp"
#include "src/sim/simulator.hpp"

namespace paldia::cluster {

struct GpuJob {
  BatchId batch;
  DurationMs solo_ms = 0.0;  // isolated execution time of this batch
  double fbr = 0.0;          // fractional bandwidth requirement
  /// Fraction of the device's compute (SMs) the batch occupies. When the
  /// co-located total exceeds 1, spatial jobs time-slice compute with the
  /// same superlinear overhead as bandwidth contention — this is what
  /// makes unbounded MPS co-location *lose* throughput (Fig. 13a) instead
  /// of merely stretching latencies. 0 preserves bandwidth-only behaviour.
  double compute = 0.0;
  DeviceCompletionFn on_complete;

  /// Set by the device at submission; carried so lane-queue waits are
  /// reported as queue time. Callers leave it alone.
  TimeMs submit_time_tag = 0.0;
};

struct GpuDeviceConfig {
  double beta = 0.25;            // superlinear contention coefficient
  DurationMs launch_overhead_ms = 1.5;
  double jitter_sigma = 0.02;    // lognormal sigma on per-batch work
  int max_spatial_jobs = 48;     // MPS client limit; beyond this, jobs queue
};

class GpuDevice {
 public:
  GpuDevice(sim::Simulator& simulator, const hw::GpuSpec& spec, Rng rng,
            GpuDeviceConfig config = {});

  /// Launch a batch under MPS (spatial sharing). Runs immediately unless the
  /// MPS client limit is reached, in which case it waits in a spatial queue.
  void submit_spatial(GpuJob&& job);

  /// Enqueue a batch on the time-shared lane (FIFO, exclusive execution).
  void submit_serial(GpuJob&& job);

  /// Abort everything in flight (node failure). Each job's callback fires
  /// with failed = true so the framework can re-queue the requests.
  void fail_all();

  int active_spatial_jobs() const { return static_cast<int>(spatial_.size()); }
  bool busy() const { return !spatial_.empty() || serial_running_.has_value(); }

  /// Total bandwidth demand of everything resident right now.
  double current_fbr_sum() const;

  /// Total compute (SM) demand of everything resident right now,
  /// including the serial-lane job.
  double current_compute_sum() const;

  /// Integral of non-idle time since construction, ms ("utilization" in the
  /// paper = non-idle fraction).
  DurationMs busy_time_ms() const;

  const hw::GpuSpec& spec() const { return *spec_; }
  const GpuDeviceConfig& config() const { return config_; }

  /// slowdown(S) as described above; exposed for the model-vs-device tests.
  static double slowdown(double fbr_sum, double beta);

 private:
  struct Resident {
    GpuJob job;
    TimeMs start_ms = 0.0;
    double remaining_work_ms = 0.0;  // in solo-speed ms
    double total_work_ms = 0.0;
  };
  /// Progress rates of the two lanes under the current membership. Every
  /// spatial resident shares one rate; the serial lane has its own.
  struct Speeds {
    double spatial = 0.0;
    double serial = 0.0;
  };

  void advance_to_now();
  void reschedule_completion();
  void on_completion_event();
  void start_next_serial();
  void start_queued_spatial();
  /// Starts `job` now in `resident`, a fresh lane slot: draws its jitter
  /// and sizes its work.
  void start(Resident& resident, GpuJob&& job);
  Speeds speeds() const;
  /// Fires the callbacks of finished_ (failed or not) and empties it.
  void finish_all(bool failed);
  void note_busy_transition();

  sim::Simulator* simulator_;
  const hw::GpuSpec* spec_;
  Rng rng_;
  GpuDeviceConfig config_;

  std::vector<Resident> spatial_;
  std::deque<GpuJob> spatial_wait_queue_;
  std::deque<GpuJob> serial_queue_;
  std::optional<Resident> serial_running_;
  /// Residents whose work is done, waiting for their callbacks. Swapped out
  /// while the callbacks run, since they re-enter submit_spatial.
  std::vector<Resident> finished_;

  TimeMs last_advance_ms_ = 0.0;
  sim::EventHandle completion_event_;

  DurationMs busy_time_ms_ = 0.0;
  TimeMs busy_since_ms_ = 0.0;
  bool was_busy_ = false;
};

}  // namespace paldia::cluster
