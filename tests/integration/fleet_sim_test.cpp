// Fleet-scale determinism contract: a multi-endpoint FleetSim run — E
// gateways over a sliced generated catalog, each on its own event-queue
// partition, the partitions drained concurrently — must produce
// byte-identical exports (Chrome trace, metrics rows, decision log, rollup
// and alert streams, analysis report) with and without a thread pool
// parallelizing the probes of the policies' Eq. 1 y-sweeps, and at every
// drain and export width. This is the test-suite twin of the CI fleet smoke
// (bench/fleet_sim byte-compare across --threads and under taskset -c 0).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/exp/fleet_sim.hpp"
#include "src/hw/catalog_gen.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/obs/export.hpp"
#include "src/obs/report.hpp"
#include "src/trace/generators.hpp"
#include "tests/pinned_cpu.hpp"

namespace paldia::exp {
namespace {

constexpr int kEndpoints = 4;

Scenario fleet_scenario() {
  Scenario scenario;
  scenario.name = "fleet-sim";
  scenario.base_seed = 21;
  trace::PoissonOptions options;
  options.mean_rps = 120.0;
  options.duration_ms = seconds(20);
  options.seed = 5;
  scenario.workloads.push_back(WorkloadSpec{
      models::ModelId::kResNet50, trace::make_poisson_trace(options)});
  options.mean_rps = 40.0;
  options.seed = 6;
  scenario.workloads.push_back(WorkloadSpec{
      models::ModelId::kMobileNet, trace::make_poisson_trace(options)});
  return scenario;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct Exports {
  std::string chrome_trace;
  std::string metrics;
  std::string decisions;
  std::string rollups;
  std::string alerts;
  std::string report;
  std::uint64_t total_requests = 0;
  std::uint64_t unserved = 0;
};

Exports run_exports(const hw::Catalog& catalog, ThreadPool* pool,
                    const std::string& tag) {
  FleetSim sim(models::Zoo::instance(), catalog, pool);
  const Scenario scenario = fleet_scenario();

  obs::RunTrace trace;
  trace.config.timeline = true;  // the Chrome export's gauges and spans
  trace.collect_rollups = true;
  trace.collect_health = true;
  const FleetSimResult result =
      sim.run(scenario, SchemeId::kPaldia, kEndpoints, &trace);
  EXPECT_EQ(static_cast<std::size_t>(result.endpoints), trace.reps.size());

  Exports exports;
  exports.total_requests = result.total_requests;
  exports.unserved = result.unserved;

  std::ostringstream chrome;
  obs::write_chrome_trace(chrome, trace, scenario.name);
  exports.chrome_trace = chrome.str();

  const std::string dir = ::testing::TempDir();
  const std::string metrics_path = dir + "fleet_metrics_" + tag + ".jsonl";
  const std::string decisions_path = dir + "fleet_decisions_" + tag + ".jsonl";
  const std::string rollups_path = dir + "fleet_rollups_" + tag + ".jsonl";
  const std::string alerts_path = dir + "fleet_alerts_" + tag + ".jsonl";
  {
    obs::MetricsWriter metrics(metrics_path);
    EXPECT_TRUE(metrics.ok()) << metrics.error();
    for (const RunResult& endpoint : result.per_endpoint) {
      metrics.write(endpoint.combined, "fleet-test");
    }
    metrics.write(result.combined, "fleet-test");
    obs::DecisionLogWriter decisions(decisions_path);
    EXPECT_TRUE(decisions.ok()) << decisions.error();
    decisions.write(trace, scheme_name(SchemeId::kPaldia), scenario.name);
    obs::RollupWriter rollups(rollups_path);
    EXPECT_TRUE(rollups.ok()) << rollups.error();
    rollups.write(trace, scenario.name);
    obs::AlertWriter alerts(alerts_path);
    EXPECT_TRUE(alerts.ok()) << alerts.error();
    alerts.write(trace, scenario.name);
  }
  exports.metrics = slurp(metrics_path);
  exports.decisions = slurp(decisions_path);
  exports.rollups = slurp(rollups_path);
  exports.alerts = slurp(alerts_path);
  for (const std::string& path :
       {metrics_path, decisions_path, rollups_path, alerts_path}) {
    std::remove(path.c_str());
  }

  std::ostringstream report;
  obs::write_report_json(
      report,
      {obs::analyze_with_zoo(obs::extract_run_data(trace, scenario.name))});
  exports.report = report.str();
  return exports;
}

TEST(FleetSim, PooledVsSerialBitIdentical) {
  const hw::Catalog catalog = hw::generate_catalog({.node_count = 16, .seed = 3});
  ThreadPool pool(4);
  const Exports serial = run_exports(catalog, nullptr, "serial");
  ASSERT_FALSE(serial.chrome_trace.empty());
  // The Chrome trace carries the timeline, so the comparison below covers
  // the gauges and monitor_tick spans too.
  EXPECT_NE(serial.chrome_trace.find("\"name\":\"latency_sketch_p99_ms\""),
            std::string::npos);
  EXPECT_NE(serial.chrome_trace.find("\"name\":\"monitor_tick\""),
            std::string::npos);
  ASSERT_FALSE(serial.metrics.empty());
  ASSERT_GT(serial.total_requests, 0u);
  const Exports pooled = run_exports(catalog, &pool, "pooled");
  EXPECT_EQ(serial.chrome_trace, pooled.chrome_trace);
  EXPECT_EQ(serial.metrics, pooled.metrics);
  EXPECT_EQ(serial.decisions, pooled.decisions);
  EXPECT_EQ(serial.rollups, pooled.rollups);
  EXPECT_EQ(serial.alerts, pooled.alerts);
  EXPECT_EQ(serial.report, pooled.report);
  EXPECT_EQ(serial.total_requests, pooled.total_requests);
  EXPECT_EQ(serial.unserved, pooled.unserved);
}

TEST(FleetSim, ExportsDoNotDependOnTheDrainWidth) {
  const hw::Catalog catalog = hw::generate_catalog({.node_count = 16, .seed = 3});
  const Exports full_width = run_exports(catalog, nullptr, "full_width");
  ASSERT_FALSE(full_width.metrics.empty());
  ASSERT_FALSE(full_width.rollups.empty());
  ASSERT_FALSE(full_width.alerts.empty());
  Exports one_cpu;
  {
    // Pinned to one CPU, the caller drains every endpoint's partition
    // itself, serially, and formats every endpoint's rows in rep order.
    PinnedToOneCpu pin;
    ASSERT_TRUE(pin.ok());
    one_cpu = run_exports(catalog, nullptr, "one_cpu");
  }
  EXPECT_EQ(full_width.chrome_trace, one_cpu.chrome_trace);
  EXPECT_EQ(full_width.metrics, one_cpu.metrics);
  EXPECT_EQ(full_width.decisions, one_cpu.decisions);
  EXPECT_EQ(full_width.rollups, one_cpu.rollups);
  EXPECT_EQ(full_width.alerts, one_cpu.alerts);
  EXPECT_EQ(full_width.report, one_cpu.report);
  EXPECT_EQ(full_width.total_requests, one_cpu.total_requests);
  EXPECT_EQ(full_width.unserved, one_cpu.unserved);
}

TEST(FleetSim, RejectsUnsupportedSchemeByName) {
  // Oracle's trace reveal predates the routing split, so the fleet refuses
  // it with an exception that names the scheme.
  const hw::Catalog catalog = hw::generate_catalog({.node_count = 16, .seed = 3});
  const FleetSim sim(models::Zoo::instance(), catalog);
  try {
    sim.run(fleet_scenario(), SchemeId::kOracle, kEndpoints);
    FAIL() << "FleetSim ran the Oracle";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("'Oracle'"), std::string::npos)
        << error.what();
  }
}

TEST(FleetSim, RequestIdsUniqueAcrossEndpointTraces) {
  // Every traced request id carries its endpoint tag: ids observed by
  // different endpoints' tracers must never alias.
  const hw::Catalog catalog = hw::generate_catalog({.node_count = 16, .seed = 3});
  FleetSim sim(models::Zoo::instance(), catalog);
  obs::RunTrace trace;
  const FleetSimResult result =
      sim.run(fleet_scenario(), SchemeId::kPaldia, kEndpoints, &trace);
  ASSERT_EQ(trace.reps.size(), static_cast<std::size_t>(kEndpoints));
  std::size_t traced = 0;
  for (int e = 0; e < kEndpoints; ++e) {
    for (const auto& event : trace.reps[static_cast<std::size_t>(e)]->events()) {
      if (event.type != obs::TraceEvent::Type::kRequest) continue;
      EXPECT_EQ(cluster::IdAllocator::endpoint_of(event.id), e);
      ++traced;
    }
  }
  EXPECT_GT(traced, 0u);
  EXPECT_LE(traced, result.total_requests);
}

}  // namespace
}  // namespace paldia::exp
