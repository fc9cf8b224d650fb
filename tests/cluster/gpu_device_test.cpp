#include "src/cluster/gpu_device.hpp"

#include <gtest/gtest.h>

#include "src/hw/catalog.hpp"

namespace paldia::cluster {
namespace {

const hw::GpuSpec& m60() {
  return *hw::Catalog::instance().spec(hw::NodeType::kG3s_xlarge).gpu;
}

GpuDeviceConfig no_noise() {
  GpuDeviceConfig config;
  config.jitter_sigma = 0.0;
  config.launch_overhead_ms = 0.0;
  return config;
}

GpuJob job(double solo, double fbr, ExecutionReport* out) {
  GpuJob j;
  j.solo_ms = solo;
  j.fbr = fbr;
  j.on_complete = [out](const ExecutionReport& report) { *out = report; };
  return j;
}

TEST(GpuDevice, SoloSpatialJobRunsAtSoloSpeed) {
  sim::Simulator simulator;
  GpuDevice device(simulator, m60(), Rng(1), no_noise());
  ExecutionReport report;
  device.submit_spatial(job(100.0, 0.5, &report));
  simulator.run_to_completion();
  EXPECT_NEAR(report.end_ms - report.start_ms, 100.0, 1e-6);
  EXPECT_NEAR(report.queue_ms(), 0.0, 1e-9);
  EXPECT_NEAR(report.interference_ms(), 0.0, 1e-6);
}

TEST(GpuDevice, TwoLightJobsDoNotInterfere) {
  sim::Simulator simulator;
  GpuDevice device(simulator, m60(), Rng(2), no_noise());
  ExecutionReport a, b;
  device.submit_spatial(job(100.0, 0.4, &a));
  device.submit_spatial(job(100.0, 0.4, &b));  // sum FBR = 0.8 <= 1
  simulator.run_to_completion();
  EXPECT_NEAR(a.end_ms - a.start_ms, 100.0, 1e-6);
  EXPECT_NEAR(b.end_ms - b.start_ms, 100.0, 1e-6);
}

TEST(GpuDevice, SaturatedJobsStretchPerProphetModel) {
  sim::Simulator simulator;
  GpuDeviceConfig config = no_noise();
  config.beta = 0.0;  // pure linear (Eq. 1) regime
  GpuDevice device(simulator, m60(), Rng(3), config);
  ExecutionReport a, b, c, d;
  // Four jobs of FBR 0.5: S = 2 -> each takes solo * 2.
  for (auto* report : {&a, &b, &c, &d}) {
    device.submit_spatial(job(100.0, 0.5, report));
  }
  simulator.run_to_completion();
  for (const auto* report : {&a, &b, &c, &d}) {
    EXPECT_NEAR(report->end_ms - report->start_ms, 200.0, 1e-6);
    EXPECT_NEAR(report->interference_ms(), 100.0, 1e-6);
  }
}

TEST(GpuDevice, SuperlinearBetaTerm) {
  sim::Simulator simulator;
  GpuDeviceConfig config = no_noise();
  config.beta = 0.25;
  GpuDevice device(simulator, m60(), Rng(4), config);
  std::vector<ExecutionReport> reports(8);
  for (auto& report : reports) device.submit_spatial(job(50.0, 0.5, &report));
  simulator.run_to_completion();
  // S = 4 -> slowdown = 4 * (1 + 0.25 * 3) = 7.
  for (const auto& report : reports) {
    EXPECT_NEAR(report.end_ms - report.start_ms, 350.0, 1e-6);
  }
}

TEST(GpuDevice, SlowdownFormula) {
  EXPECT_DOUBLE_EQ(GpuDevice::slowdown(0.5, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(GpuDevice::slowdown(1.0, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(GpuDevice::slowdown(2.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(GpuDevice::slowdown(2.0, 0.25), 2.0 * 1.25);
}

TEST(GpuDevice, SerialLaneIsFifoAndExclusive) {
  sim::Simulator simulator;
  GpuDevice device(simulator, m60(), Rng(5), no_noise());
  ExecutionReport a, b, c;
  device.submit_serial(job(100.0, 0.5, &a));
  device.submit_serial(job(100.0, 0.5, &b));
  device.submit_serial(job(100.0, 0.5, &c));
  simulator.run_to_completion();
  EXPECT_NEAR(a.end_ms, 100.0, 1e-6);
  EXPECT_NEAR(b.end_ms, 200.0, 1e-6);
  EXPECT_NEAR(c.end_ms, 300.0, 1e-6);
  // Queueing time is attributed, execution stays solo-speed.
  EXPECT_NEAR(c.queue_ms(), 200.0, 1e-6);
  EXPECT_NEAR(c.interference_ms(), 0.0, 1e-6);
}

TEST(GpuDevice, SerialJobSlowsSpatialJobsButNotItself) {
  sim::Simulator simulator;
  GpuDevice device(simulator, m60(), Rng(6), no_noise());
  ExecutionReport serial, spatial;
  device.submit_serial(job(100.0, 0.6, &serial));
  device.submit_spatial(job(100.0, 0.6, &spatial));
  simulator.run_to_completion();
  // Serial runs at full speed; spatial sees S = 1.2 while the serial job is
  // resident, then finishes alone.
  EXPECT_NEAR(serial.end_ms - serial.start_ms, 100.0, 1e-6);
  EXPECT_GT(spatial.end_ms - spatial.start_ms, 100.0);
}

TEST(GpuDevice, HybridMatchesEquationOneStructure) {
  // y batches queued + (N - y) concurrent: the last completion time should
  // be close to queued-drain + stretched-concurrent (Eq. 1 with the device
  // running both lanes concurrently, so strictly <= the sum).
  sim::Simulator simulator;
  GpuDevice device(simulator, m60(), Rng(7), no_noise());
  const double solo = 100.0, fbr = 0.6;
  std::vector<ExecutionReport> serial(3), spatial(3);
  for (auto& report : serial) device.submit_serial(job(solo, fbr, &report));
  for (auto& report : spatial) device.submit_spatial(job(solo, fbr, &report));
  simulator.run_to_completion();
  double last = 0.0;
  for (const auto& report : serial) last = std::max(last, report.end_ms);
  for (const auto& report : spatial) last = std::max(last, report.end_ms);
  const double queued_drain = 3 * solo;
  EXPECT_GE(last, queued_drain - 1e-6);
  // Upper bound: full Eq. 1 sum with S including the serial resident.
  const double s = 4 * fbr;
  const double stretched = solo * GpuDevice::slowdown(s, device.config().beta);
  EXPECT_LE(last, queued_drain + stretched + 1e-6);
}

TEST(GpuDevice, MpsClientLimitQueuesExcessJobs) {
  sim::Simulator simulator;
  GpuDeviceConfig config = no_noise();
  config.max_spatial_jobs = 2;
  GpuDevice device(simulator, m60(), Rng(8), config);
  std::vector<ExecutionReport> reports(4);
  for (auto& report : reports) device.submit_spatial(job(100.0, 0.3, &report));
  EXPECT_EQ(device.active_spatial_jobs(), 2);
  simulator.run_to_completion();
  // The two queued jobs start only after the first two finish.
  int started_late = 0;
  for (const auto& report : reports) {
    if (report.start_ms > 0.0) ++started_late;
  }
  EXPECT_EQ(started_late, 2);
}

TEST(GpuDevice, FailAllReportsFailures) {
  sim::Simulator simulator;
  GpuDevice device(simulator, m60(), Rng(9), no_noise());
  ExecutionReport running, queued;
  device.submit_spatial(job(100.0, 0.5, &running));
  device.submit_serial(job(100.0, 0.5, &queued));
  simulator.run_until(50.0);
  device.fail_all();
  EXPECT_TRUE(running.failed);
  EXPECT_FALSE(device.busy());
  simulator.run_to_completion();
  EXPECT_TRUE(queued.failed);
}

TEST(GpuDevice, BusyTimeTracksNonIdleTime) {
  sim::Simulator simulator;
  GpuDevice device(simulator, m60(), Rng(10), no_noise());
  ExecutionReport a, b;
  device.submit_spatial(job(100.0, 0.5, &a));
  simulator.run_to_completion();
  EXPECT_NEAR(device.busy_time_ms(), 100.0, 1e-6);
  // Idle gap then another job.
  simulator.schedule_in(100.0, [&] { device.submit_serial(job(50.0, 0.5, &b)); });
  simulator.run_to_completion();
  EXPECT_NEAR(device.busy_time_ms(), 150.0, 1e-6);
  EXPECT_NEAR(b.end_ms - b.start_ms, 50.0, 1e-6);  // the report outlives the job
}

TEST(GpuDevice, JitterBoundedAndDeterministic) {
  sim::Simulator s1, s2;
  GpuDeviceConfig config;  // default jitter
  GpuDevice d1(s1, m60(), Rng(11), config);
  GpuDevice d2(s2, m60(), Rng(11), config);
  ExecutionReport r1, r2;
  d1.submit_spatial(job(100.0, 0.5, &r1));
  d2.submit_spatial(job(100.0, 0.5, &r2));
  s1.run_to_completion();
  s2.run_to_completion();
  EXPECT_EQ(r1.end_ms, r2.end_ms);  // same seed, same result
  EXPECT_NEAR(r1.end_ms - r1.start_ms, 100.0, 15.0);
}

TEST(GpuDevice, CurrentFbrSum) {
  sim::Simulator simulator;
  GpuDevice device(simulator, m60(), Rng(12), no_noise());
  ExecutionReport a, b;
  device.submit_spatial(job(100.0, 0.4, &a));
  device.submit_serial(job(100.0, 0.3, &b));
  EXPECT_NEAR(device.current_fbr_sum(), 0.7, 1e-9);
  simulator.run_to_completion();
  EXPECT_EQ(device.current_fbr_sum(), 0.0);
}

// Throughput property across the spatial lane: with heavy oversubscription,
// effective throughput degrades below the linear-regime value (the collapse
// that dooms INFless-style all-spatial scheduling in Fig. 13a).
TEST(GpuDevice, ThroughputCollapsesUnderOversubscription) {
  auto drain_time = [&](int jobs) {
    sim::Simulator simulator;
    GpuDevice device(simulator, m60(), Rng(13), no_noise());
    std::vector<ExecutionReport> reports(jobs);
    for (auto& report : reports) device.submit_spatial(job(50.0, 0.6, &report));
    return simulator.run_to_completion();
  };
  const double t4 = drain_time(4);
  const double t16 = drain_time(16);
  // 4x the work must take *more* than 4x the time under the beta term.
  EXPECT_GT(t16, 4.0 * t4 * 1.3);
}

}  // namespace
}  // namespace paldia::cluster
