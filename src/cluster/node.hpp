// A worker node: one Table II instance with its compute device(s) and the
// containers currently resident on it.
//
// The node is mechanical — it executes what it is told and accounts for
// container cold starts; *policy* (how many containers, which node to use,
// spatial/temporal split) lives in src/core. Spatial batches each need a
// free container (paper: one container per concurrently-shared batch);
// temporal and CPU batches reuse any warm container of the model.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/cluster/container.hpp"
#include "src/cluster/cpu_executor.hpp"
#include "src/cluster/gpu_device.hpp"
#include "src/cluster/request.hpp"
#include "src/common/rng.hpp"
#include "src/hw/catalog.hpp"
#include "src/models/profile.hpp"
#include "src/models/zoo.hpp"
#include "src/sim/simulator.hpp"

namespace paldia::cluster {

struct NodeConfig {
  DurationMs gpu_cold_start_ms = 1500.0;  // image pre-pulled during VM procurement
  DurationMs cpu_cold_start_ms = 1000.0;
  GpuDeviceConfig gpu;
};

/// A request for the node to execute one batch.
struct ExecRequest {
  BatchId batch;
  models::ModelId model{};
  int batch_size = 0;
  ShareMode mode = ShareMode::kSpatial;
  BatchCompletionFn on_complete;
};

class Node {
 public:
  /// `profile` supplies the batch envelopes and, through its catalog, the
  /// node's spec. It must outlive the node; a Cluster passes its own table.
  Node(sim::Simulator& simulator, NodeId id, hw::NodeType type, Rng rng,
       const models::Zoo& zoo = models::Zoo::instance(),
       const models::ProfileTable& profile = models::ProfileTable::instance(),
       NodeConfig config = {});

  NodeId id() const { return id_; }
  hw::NodeType type() const { return type_; }
  const hw::NodeSpec& spec() const { return *spec_; }
  bool is_gpu() const { return spec_->is_gpu(); }

  // --- Lifecycle (failure injection) -------------------------------------
  bool is_up() const { return up_; }
  void fail();
  void recover();

  // --- Containers ---------------------------------------------------------
  /// Spawn a container for the model; it becomes warm after the cold-start
  /// delay. Returns its id. `prewarmed` skips the cold start (used to give
  /// schemes a provisioned starting state at t = 0, not counted as a cold
  /// start).
  ContainerId spawn_container(models::ModelId model, bool prewarmed = false);

  /// Terminate one idle container of the model (busy ones are left alone).
  /// Returns false when none was idle.
  bool terminate_idle_container(models::ModelId model);

  int container_count(models::ModelId model) const;
  int warm_idle_container_count(models::ModelId model) const;

  /// Containers of the model idle (warm, not busy) since before `cutoff`.
  int idle_since_count(models::ModelId model, TimeMs cutoff) const;

  std::uint64_t cold_starts() const { return cold_starts_; }

  // --- Execution ------------------------------------------------------------
  /// Execute a batch; completion (or failure) is reported via the request's
  /// callback. Never call on a downed node (checked).
  void execute(ExecRequest&& request);

  /// Number of batches waiting for a container (spatial gating).
  int container_wait_queue_length() const;

  // --- Introspection / telemetry -------------------------------------------
  /// Device busy fraction over [since, now] given the busy-ms reading taken
  /// at `since`. Utilization in the paper = non-idle time fraction.
  DurationMs device_busy_time_ms() const;
  double current_fbr_sum() const;
  GpuDevice* gpu_device() { return gpu_device_.get(); }
  CpuExecutor* cpu_executor() { return cpu_executor_.get(); }

  /// Host interference multiplier (Table III study). >= 1.
  void set_host_interference(double cpu_factor, double gpu_factor);

  const models::ProfileTable& profile() const { return *profile_; }

 private:
  struct PendingExec {
    ExecRequest request;
    TimeMs submitted_ms = 0.0;
  };

  void start_exec(ExecRequest&& request, TimeMs node_submit_ms, Container* container);
  Container* find_idle_container(models::ModelId model);
  void pump_wait_queue();
  void on_container_ready();

  sim::Simulator* simulator_;
  NodeId id_;
  hw::NodeType type_;
  const hw::NodeSpec* spec_;
  const models::Zoo* zoo_;
  const models::ProfileTable* profile_;
  NodeConfig config_;
  Rng rng_;

  bool up_ = true;
  std::unique_ptr<GpuDevice> gpu_device_;
  std::unique_ptr<CpuExecutor> cpu_executor_;

  std::map<ContainerId, Container> containers_;
  std::deque<PendingExec> container_wait_queue_;
  std::int64_t next_container_id_ = 0;
  std::uint64_t cold_starts_ = 0;
  double gpu_interference_factor_ = 1.0;
};

}  // namespace paldia::cluster
