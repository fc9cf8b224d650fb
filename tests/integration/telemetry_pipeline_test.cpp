// End-to-end contract of the fleet-scale telemetry layer: with trace
// sampling on (--sample-rate=8) every export surface — sampled Chrome
// trace, metrics, decision log, rollup stream, analysis report — stays
// byte-identical with and without a worker pool; the sampled
// report carries the exact same request/violation/cause/compliance counts
// as the unsampled one; compliant retention is statistically 1-in-N with
// violators always kept; and a rollup-only run (no tracer slots at all)
// reproduces compliance and attribution from the windowed stream alone.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/exp/runner.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/obs/export.hpp"
#include "src/obs/report.hpp"
#include "src/trace/generators.hpp"

namespace paldia::exp {
namespace {

/// Failure injector on, so violations (and all eight cause classes' worth
/// of machinery) are exercised, not just the happy path.
Scenario telemetry_scenario() {
  Scenario scenario;
  scenario.name = "telemetry";
  trace::PoissonOptions options;
  options.mean_rps = 60.0;
  options.duration_ms = seconds(30);
  scenario.workloads.push_back(WorkloadSpec{
      models::ModelId::kResNet50, trace::make_poisson_trace(options)});
  scenario.repetitions = 2;
  scenario.failures = cluster::FailureInjectorConfig{
      .period_ms = seconds(12), .downtime_ms = seconds(4),
      .first_failure_ms = seconds(6)};
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
  std::string report;
  obs::AnalysisReport analysis;
  std::uint64_t kept_lifecycles = 0;
  std::uint64_t sampled_out = 0;
};

Exports run_exports(std::uint32_t sample_rate, ThreadPool* pool,
                    const std::string& tag) {
  SchemeFactoryOptions options;
  options.sample_rate = sample_rate;
  Runner runner(models::Zoo::instance(), hw::Catalog::instance(), pool,
                options);
  const Scenario scenario = telemetry_scenario();

  obs::RunTrace trace;
  trace.collect_rollups = true;
  trace.config.timeline = true;  // the Chrome export's gauges and spans
  const RunResult result = runner.run(scenario, SchemeId::kPaldia, trace);

  Exports exports;
  std::ostringstream chrome;
  obs::write_chrome_trace(chrome, trace, scenario.name);
  exports.chrome_trace = chrome.str();

  const std::string dir = ::testing::TempDir();
  const std::string metrics_path = dir + "telemetry_metrics_" + tag + ".jsonl";
  const std::string decisions_path =
      dir + "telemetry_decisions_" + tag + ".jsonl";
  {
    obs::MetricsWriter metrics(metrics_path);
    EXPECT_TRUE(metrics.ok()) << metrics.error();
    metrics.write(result.combined, "telemetry-test");
    obs::DecisionLogWriter decisions(decisions_path);
    EXPECT_TRUE(decisions.ok()) << decisions.error();
    decisions.write(trace, scheme_name(SchemeId::kPaldia), scenario.name);
  }
  exports.metrics = slurp(metrics_path);
  exports.decisions = slurp(decisions_path);
  std::remove(metrics_path.c_str());
  std::remove(decisions_path.c_str());

  std::ostringstream rollups;
  obs::RollupWriter rollup_writer(rollups, obs::ExportFormat::kJsonl);
  rollup_writer.write(trace, scenario.name + " / Paldia");
  exports.rollups = rollups.str();

  exports.analysis =
      obs::analyze_with_zoo(obs::extract_run_data(trace, scenario.name));
  std::ostringstream report;
  obs::write_report_json(report, {exports.analysis});
  exports.report = report.str();

  for (const auto& rep : trace.reps) {
    for (const obs::TraceEvent& event : rep->events()) {
      exports.kept_lifecycles +=
          event.type == obs::TraceEvent::Type::kRequest ? 1 : 0;
    }
  }
  exports.sampled_out = trace.sampled_out();
  return exports;
}

TEST(TelemetryPipeline, SampledExportsBitIdenticalAcrossThreads) {
  ThreadPool pool(8);
  const Exports pooled = run_exports(8, &pool, "r8pool");
  ASSERT_FALSE(pooled.chrome_trace.empty());
  // The Chrome trace carries the timeline, so the comparison below covers
  // the gauges and monitor_tick spans too.
  EXPECT_NE(pooled.chrome_trace.find("\"name\":\"latency_sketch_p99_ms\""),
            std::string::npos);
  EXPECT_NE(pooled.chrome_trace.find("\"name\":\"monitor_tick\""),
            std::string::npos);
  ASSERT_FALSE(pooled.rollups.empty());
  EXPECT_GT(pooled.sampled_out, 0u);

  const Exports serial = run_exports(8, nullptr, "r8serial");
  EXPECT_EQ(pooled.chrome_trace, serial.chrome_trace);
  EXPECT_EQ(pooled.metrics, serial.metrics);
  EXPECT_EQ(pooled.decisions, serial.decisions);
  EXPECT_EQ(pooled.rollups, serial.rollups);
  EXPECT_EQ(pooled.report, serial.report);
}

TEST(TelemetryPipeline, SampledReportCountsMatchUnsampledExactly) {
  ThreadPool pool(8);
  const Exports full = run_exports(1, &pool, "r1");
  const Exports sampled = run_exports(8, &pool, "r8");

  EXPECT_EQ(full.sampled_out, 0u);
  EXPECT_GT(sampled.sampled_out, 0u);
  // The sampled trace is materially smaller...
  EXPECT_LT(sampled.kept_lifecycles, full.kept_lifecycles);
  // ...but the report's counts are exact: sampled-out completions come back
  // via the "sampled_out:<model>:<node>" counters.
  const obs::AnalysisReport& a = full.analysis;
  const obs::AnalysisReport& b = sampled.analysis;
  EXPECT_EQ(a.total.completed, b.total.completed);
  EXPECT_EQ(a.total.violations, b.total.violations);
  EXPECT_EQ(a.unserved, b.unserved);
  EXPECT_EQ(a.total.causes, b.total.causes);
  EXPECT_DOUBLE_EQ(a.compliance, b.compliance);
  EXPECT_EQ(b.sampled_out, sampled.sampled_out);
  ASSERT_EQ(a.per_model.size(), b.per_model.size());
  for (std::size_t i = 0; i < a.per_model.size(); ++i) {
    EXPECT_EQ(a.per_model[i].completed, b.per_model[i].completed);
    EXPECT_EQ(a.per_model[i].violations, b.per_model[i].violations);
  }
  ASSERT_EQ(a.per_node.size(), b.per_node.size());
  for (std::size_t i = 0; i < a.per_node.size(); ++i) {
    EXPECT_EQ(a.per_node[i].completed, b.per_node[i].completed);
    EXPECT_EQ(a.per_node[i].violations, b.per_node[i].violations);
  }
  // Rollups fold every completion regardless of sampling, so the streams
  // match byte for byte across sample rates.
  EXPECT_EQ(full.rollups, sampled.rollups);
}

TEST(TelemetryPipeline, CompliantRetentionIsStatisticallyOneInN) {
  ThreadPool pool(8);
  const std::uint32_t rate = 8;
  const Exports full = run_exports(1, &pool, "stat1");
  const Exports sampled = run_exports(rate, &pool, "stat8");

  // Completed lifecycles only (unserved requests never produce spans).
  const std::uint64_t total = sampled.kept_lifecycles + sampled.sampled_out;
  EXPECT_EQ(total, full.kept_lifecycles);
  const std::uint64_t violators =
      full.analysis.total.violations - full.analysis.unserved;
  ASSERT_GT(violators, 0u) << "scenario must produce violations";
  ASSERT_GT(total, violators);

  // Violators are always kept, so every drop came from the compliant pool.
  const std::uint64_t compliant = total - violators;
  const std::uint64_t compliant_kept = sampled.kept_lifecycles - violators;
  const double p = 1.0 / rate;
  const double expected = static_cast<double>(compliant) * p;
  const double sigma =
      std::sqrt(static_cast<double>(compliant) * p * (1.0 - p));
  EXPECT_NEAR(static_cast<double>(compliant_kept), expected, 5.0 * sigma)
      << "compliant " << compliant << " kept " << compliant_kept;
}

TEST(TelemetryPipeline, RollupOnlyRunReproducesComplianceWithoutTracerSlots) {
  ThreadPool pool(8);
  const Exports full = run_exports(1, &pool, "ro_full");

  SchemeFactoryOptions options;
  Runner runner(models::Zoo::instance(), hw::Catalog::instance(), &pool,
                options);
  const Scenario scenario = telemetry_scenario();
  obs::RunTrace trace;
  trace.capture_events = false;  // no event buffers at all
  trace.collect_rollups = true;
  runner.run(scenario, SchemeId::kPaldia, trace);
  EXPECT_TRUE(trace.reps.empty()) << "rollup-only runs allocate no tracers";
  ASSERT_EQ(trace.rollups.size(), 2u);

  std::ostringstream rollups;
  obs::RollupWriter writer(rollups, obs::ExportFormat::kJsonl);
  writer.write(trace, scenario.name + " / Paldia");
  EXPECT_EQ(rollups.str(), full.rollups);

  std::vector<obs::AnalysisReport> reports;
  std::string error;
  ASSERT_TRUE(obs::analyze_rollup_stream(rollups.str(), &reports, &error))
      << error;
  ASSERT_EQ(reports.size(), 1u);
  const obs::AnalysisReport& rebuilt = reports[0];
  EXPECT_EQ(rebuilt.total.completed, full.analysis.total.completed);
  EXPECT_EQ(rebuilt.total.violations, full.analysis.total.violations);
  EXPECT_EQ(rebuilt.unserved, full.analysis.unserved);
  EXPECT_EQ(rebuilt.total.causes, full.analysis.total.causes);
  EXPECT_DOUBLE_EQ(rebuilt.compliance, full.analysis.compliance);
}

TEST(TelemetryPipeline, ProfileStaysOutOfByteComparedArtifacts) {
  // --profile timings are host wall clock; two profiled runs still agree on
  // every deterministic artifact, and profile rows appear only in the
  // report struct (whose JSON section is emitted just for profiled runs).
  ThreadPool pool(4);
  SchemeFactoryOptions options;
  options.sample_rate = 8;
  Runner runner(models::Zoo::instance(), hw::Catalog::instance(), &pool,
                options);
  const Scenario scenario = telemetry_scenario();

  auto profiled_run = [&] {
    obs::RunTrace trace;
    trace.collect_rollups = true;
    trace.profile = true;
    runner.run(scenario, SchemeId::kPaldia, trace);
    return trace;
  };
  const obs::RunTrace a = profiled_run();
  const obs::RunTrace b = profiled_run();

  // The chrome trace gains a self-profile lane (wall-clock durations, so
  // not byte-compared); the rollup stream stays deterministic.
  std::ostringstream chrome;
  obs::write_chrome_trace(chrome, a, scenario.name);
  EXPECT_NE(chrome.str().find("self-profile"), std::string::npos);
  std::ostringstream rollup_a;
  std::ostringstream rollup_b;
  obs::RollupWriter wa(rollup_a, obs::ExportFormat::kJsonl);
  obs::RollupWriter wb(rollup_b, obs::ExportFormat::kJsonl);
  wa.write(a, "x");
  wb.write(b, "x");
  EXPECT_EQ(rollup_a.str(), rollup_b.str());

  const auto rows = obs::summarize_profile(a);
  ASSERT_FALSE(rows.empty());
  bool saw_dispatch = false;
  for (const auto& row : rows) {
    EXPECT_GT(row.calls, 0u);
    saw_dispatch = saw_dispatch || row.phase == "dispatch_tick";
  }
  EXPECT_TRUE(saw_dispatch);
}

}  // namespace
}  // namespace paldia::exp
