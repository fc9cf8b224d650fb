#include "src/cluster/node.hpp"

#include <gtest/gtest.h>

namespace paldia::cluster {
namespace {

constexpr auto kModel = models::ModelId::kResNet50;

ExecRequest request(int bs, ShareMode mode, ExecutionReport* out) {
  ExecRequest r;
  r.model = kModel;
  r.batch_size = bs;
  r.mode = mode;
  r.on_complete = [out](const ExecutionReport& report) { *out = report; };
  return r;
}

TEST(Node, SpawnedContainerBecomesWarmAfterColdStart) {
  sim::Simulator simulator;
  Node node(simulator, NodeId{0}, hw::NodeType::kG3s_xlarge, Rng(1));
  node.spawn_container(kModel);
  EXPECT_EQ(node.warm_idle_container_count(kModel), 0);
  simulator.run_to_completion();
  EXPECT_EQ(node.warm_idle_container_count(kModel), 1);
  EXPECT_EQ(node.cold_starts(), 1u);
}

TEST(Node, PrewarmedContainerIsImmediatelyWarm) {
  sim::Simulator simulator;
  Node node(simulator, NodeId{0}, hw::NodeType::kG3s_xlarge, Rng(2));
  node.spawn_container(kModel, /*prewarmed=*/true);
  EXPECT_EQ(node.warm_idle_container_count(kModel), 1);
  EXPECT_EQ(node.cold_starts(), 0u);
}

TEST(Node, SpatialBatchNeedsDedicatedContainer) {
  sim::Simulator simulator;
  Node node(simulator, NodeId{0}, hw::NodeType::kG3s_xlarge, Rng(3));
  node.spawn_container(kModel, true);
  ExecutionReport a, b;
  node.execute(request(32, ShareMode::kSpatial, &a));
  node.execute(request(32, ShareMode::kSpatial, &b));
  // Only one container: the second batch waits.
  EXPECT_EQ(node.container_wait_queue_length(), 1);
  simulator.run_to_completion();
  EXPECT_GT(b.start_ms, a.end_ms - 1e-6);
  EXPECT_GT(b.queue_ms(), 0.0);
}

TEST(Node, TwoContainersRunSpatialBatchesConcurrently) {
  sim::Simulator simulator;
  Node node(simulator, NodeId{0}, hw::NodeType::kG3s_xlarge, Rng(4));
  node.spawn_container(kModel, true);
  node.spawn_container(kModel, true);
  ExecutionReport a, b;
  node.execute(request(32, ShareMode::kSpatial, &a));
  node.execute(request(32, ShareMode::kSpatial, &b));
  EXPECT_EQ(node.container_wait_queue_length(), 0);
  simulator.run_to_completion();
  EXPECT_NEAR(a.start_ms, b.start_ms, 1e-6);
}

TEST(Node, TemporalBatchesReuseOneWarmContainer) {
  sim::Simulator simulator;
  Node node(simulator, NodeId{0}, hw::NodeType::kG3s_xlarge, Rng(5));
  node.spawn_container(kModel, true);
  ExecutionReport a, b;
  node.execute(request(32, ShareMode::kTemporal, &a));
  node.execute(request(32, ShareMode::kTemporal, &b));
  EXPECT_EQ(node.container_wait_queue_length(), 0);  // both accepted
  simulator.run_to_completion();
  EXPECT_FALSE(a.failed);
  EXPECT_FALSE(b.failed);
  EXPECT_GE(b.start_ms, a.end_ms - 1e-6);  // device serialises them
}

TEST(Node, ColdStartChargedToFirstBatch) {
  sim::Simulator simulator;
  NodeConfig config;
  Node node(simulator, NodeId{0}, hw::NodeType::kG3s_xlarge, Rng(6),
            models::Zoo::instance(), models::ProfileTable::instance(), config);
  ExecutionReport report;
  // No container exists; temporal path spawns one and waits for it.
  node.execute(request(16, ShareMode::kTemporal, &report));
  simulator.run_to_completion();
  EXPECT_FALSE(report.failed);
  EXPECT_NEAR(report.cold_start_ms, config.gpu_cold_start_ms, 50.0);
  EXPECT_GE(report.start_ms, config.gpu_cold_start_ms - 1e-6);
}

TEST(Node, CpuNodeUsesBatchedCpuMode) {
  sim::Simulator simulator;
  Node node(simulator, NodeId{0}, hw::NodeType::kC6i_4xlarge, Rng(7));
  node.spawn_container(kModel, true);
  ExecutionReport report;
  node.execute(request(4, ShareMode::kCpu, &report));
  simulator.run_to_completion();
  EXPECT_FALSE(report.failed);
  const auto expected =
      node.profile().lookup(models::Zoo::instance().spec(kModel),
                            hw::NodeType::kC6i_4xlarge, 4).solo_ms;
  EXPECT_NEAR(report.end_ms - report.start_ms, expected, expected * 0.15);
}

TEST(Node, FailureFailsEverythingAndKillsContainers) {
  sim::Simulator simulator;
  Node node(simulator, NodeId{0}, hw::NodeType::kG3s_xlarge, Rng(8));
  node.spawn_container(kModel, true);
  ExecutionReport running, waiting;
  node.execute(request(32, ShareMode::kSpatial, &running));
  node.execute(request(32, ShareMode::kSpatial, &waiting));
  node.fail();
  EXPECT_FALSE(node.is_up());
  EXPECT_TRUE(running.failed);
  EXPECT_TRUE(waiting.failed);
  EXPECT_EQ(node.container_count(kModel), 0);
  node.recover();
  EXPECT_TRUE(node.is_up());
}

TEST(Node, TerminateIdleContainer) {
  sim::Simulator simulator;
  Node node(simulator, NodeId{0}, hw::NodeType::kG3s_xlarge, Rng(9));
  node.spawn_container(kModel, true);
  node.spawn_container(kModel, true);
  EXPECT_TRUE(node.terminate_idle_container(kModel));
  EXPECT_EQ(node.container_count(kModel), 1);
  EXPECT_TRUE(node.terminate_idle_container(kModel));
  EXPECT_FALSE(node.terminate_idle_container(kModel));
}

TEST(Node, IdleSinceCount) {
  sim::Simulator simulator;
  Node node(simulator, NodeId{0}, hw::NodeType::kG3s_xlarge, Rng(10));
  node.spawn_container(kModel, true);
  simulator.run_until(1000.0);
  EXPECT_EQ(node.idle_since_count(kModel, 500.0), 1);
  EXPECT_EQ(node.idle_since_count(kModel, -1.0), 0);
}

TEST(Node, GpuInterferenceFactorStretchesWork) {
  sim::Simulator simulator;
  Node node(simulator, NodeId{0}, hw::NodeType::kG3s_xlarge, Rng(11));
  node.spawn_container(kModel, true);
  node.set_host_interference(1.0, 1.5);
  ExecutionReport report;
  node.execute(request(32, ShareMode::kSpatial, &report));
  simulator.run_to_completion();
  const auto base =
      node.profile().lookup(models::Zoo::instance().spec(kModel),
                            hw::NodeType::kG3s_xlarge, 32).solo_ms;
  EXPECT_GT(report.end_ms - report.start_ms, base * 1.3);
}

// A completion callable that counts its moves and cannot be copied, so
// every hand-off of the batch callback between Node::execute and its call
// is a move this test sees.
struct MoveCounter {
  int* moves;
  int* calls;

  MoveCounter(int* moves_out, int* calls_out) : moves(moves_out), calls(calls_out) {}
  MoveCounter(MoveCounter&& other) noexcept : moves(other.moves), calls(other.calls) {
    ++*moves;
  }
  MoveCounter(const MoveCounter&) = delete;
  MoveCounter& operator=(const MoveCounter&) = delete;
  MoveCounter& operator=(MoveCounter&&) = delete;

  void operator()(const ExecutionReport&) { ++*calls; }
};

struct CallbackCount {
  int moves = 0;
  int calls = 0;
};

// Runs one batch through `node` (after `prepare`) and counts the moves of
// its callback from the execute() call to the callback's single call.
template <typename Prepare>
CallbackCount count_callback_moves(hw::NodeType type, ShareMode mode,
                                   Prepare prepare) {
  sim::Simulator simulator;
  Node node(simulator, NodeId{0}, type, Rng(13));
  prepare(node);
  CallbackCount count;
  ExecRequest r;
  r.model = kModel;
  r.batch_size = 8;
  r.mode = mode;
  r.on_complete = MoveCounter(&count.moves, &count.calls);
  count.moves = 0;  // count from the hand-off to the node onwards
  node.execute(std::move(r));
  simulator.run_to_completion();
  return count;
}

TEST(Node, BatchCallbackMovesAreBounded) {
  const auto warm = [](Node& node) { node.spawn_container(kModel, true); };
  const auto cold = [](Node& node) { node.spawn_container(kModel); };

  const auto spatial =
      count_callback_moves(hw::NodeType::kG3s_xlarge, ShareMode::kSpatial, warm);
  EXPECT_EQ(spatial.calls, 1);
  EXPECT_LE(spatial.moves, 5);

  const auto waits_for_container =
      count_callback_moves(hw::NodeType::kG3s_xlarge, ShareMode::kSpatial, cold);
  EXPECT_EQ(waits_for_container.calls, 1);
  EXPECT_LE(waits_for_container.moves, 8);

  const auto serial =
      count_callback_moves(hw::NodeType::kG3s_xlarge, ShareMode::kTemporal, warm);
  EXPECT_EQ(serial.calls, 1);
  EXPECT_LE(serial.moves, 6);

  const auto cpu =
      count_callback_moves(hw::NodeType::kC6i_4xlarge, ShareMode::kCpu, warm);
  EXPECT_EQ(cpu.calls, 1);
  EXPECT_LE(cpu.moves, 4);
}

TEST(Node, PerModelContainerIsolation) {
  sim::Simulator simulator;
  Node node(simulator, NodeId{0}, hw::NodeType::kG3s_xlarge, Rng(12));
  node.spawn_container(models::ModelId::kResNet50, true);
  EXPECT_EQ(node.container_count(models::ModelId::kResNet50), 1);
  EXPECT_EQ(node.container_count(models::ModelId::kVgg19), 0);
  EXPECT_FALSE(node.terminate_idle_container(models::ModelId::kVgg19));
}

}  // namespace
}  // namespace paldia::cluster
