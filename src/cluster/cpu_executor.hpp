// Simulated CPU batched-inference executor (the ML framework's native CPU
// mode, Section IV-D). One batch executes at a time using the whole host
// CPU; further batches queue FIFO. Host interference from co-resident
// "regular" serverless workloads (Table III study) inflates execution via a
// pluggable factor.
#pragma once

#include <deque>
#include <optional>
#include <utility>

#include "src/cluster/request.hpp"
#include "src/common/rng.hpp"
#include "src/hw/node_spec.hpp"
#include "src/sim/simulator.hpp"

namespace paldia::cluster {

struct CpuJob {
  BatchId batch;
  DurationMs solo_ms = 0.0;
  DeviceCompletionFn on_complete;
};

class CpuExecutor {
 public:
  CpuExecutor(sim::Simulator& simulator, const hw::CpuSpec& spec, Rng rng);

  void submit(CpuJob&& job);
  void fail_all();

  /// Multiplier (>= 1) applied to all executions; set by the host
  /// interference injector. 1 = no co-residents.
  void set_interference_factor(double factor) { interference_factor_ = factor; }
  double interference_factor() const { return interference_factor_; }

  bool busy() const { return running_.has_value(); }
  int queued_jobs() const { return static_cast<int>(queue_.size()); }
  DurationMs busy_time_ms() const;

 private:
  struct Running {
    CpuJob job;
    TimeMs submit_ms = 0.0;
    TimeMs start_ms = 0.0;
    DurationMs work_ms = 0.0;
  };

  /// Start `job` now: draws its jitter and arms its completion.
  void start(CpuJob&& job, TimeMs submit_ms);
  void start_next();
  void complete_running();

  sim::Simulator* simulator_;
  const hw::CpuSpec* spec_;
  Rng rng_;
  double interference_factor_ = 1.0;
  double jitter_sigma_ = 0.03;

  std::deque<std::pair<CpuJob, TimeMs>> queue_;  // (job, submit time)
  std::optional<Running> running_;
  sim::EventHandle completion_event_;

  DurationMs busy_time_ms_ = 0.0;
  TimeMs busy_since_ms_ = 0.0;
};

}  // namespace paldia::cluster
