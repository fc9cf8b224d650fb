// End-to-end contract of the online SLO health engine: with injected node
// failures every sustained violation burst raises a firing -> resolved
// incident whose blame hint is a cause attribution actually charged, a
// compliant run raises zero alerts, the alert stream is byte-identical
// with and without a worker pool, and the inline report's "health"
// section equals the `paldia-analyze --alerts` reconstruction byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "src/exp/runner.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/obs/export.hpp"
#include "src/obs/health.hpp"
#include "src/obs/report.hpp"
#include "src/trace/generators.hpp"

namespace paldia::exp {
namespace {

Scenario health_scenario(bool failures) {
  Scenario scenario;
  scenario.name = "health";
  trace::PoissonOptions options;
  options.mean_rps = 60.0;
  options.duration_ms = seconds(30);
  scenario.workloads.push_back(WorkloadSpec{
      models::ModelId::kResNet50, trace::make_poisson_trace(options)});
  scenario.repetitions = 2;
  if (failures) {
    scenario.failures = cluster::FailureInjectorConfig{
        .period_ms = seconds(12), .downtime_ms = seconds(4),
        .first_failure_ms = seconds(6)};
  }
  return scenario;
}

/// Burn windows sized for the 30 s scenario: the failure bursts last ~4 s,
/// so a 2 s fast / 8 s slow pair sees them while monitor ticks (500 ms)
/// give each window enough evaluations. slo_target 0.99 puts the breach
/// point at a 14.4% violation fraction — far above cold-start stragglers,
/// far below a downed node.
SchemeFactoryOptions health_options() {
  SchemeFactoryOptions options;
  options.slo_target = 0.99;
  options.burn_fast_ms = 2000.0;
  options.burn_slow_ms = 8000.0;
  return options;
}

struct HealthRun {
  std::string alerts_jsonl;
  std::string inline_report_json;
  obs::HealthReport inline_health;
  RunResult result;
  std::size_t reps = 0;
};

HealthRun run_health(bool failures, ThreadPool* pool,
                     SchemeId scheme = SchemeId::kPaldia) {
  Runner runner(models::Zoo::instance(), hw::Catalog::instance(), pool,
                health_options());
  const Scenario scenario = health_scenario(failures);
  obs::RunTrace trace;
  trace.capture_events = false;  // health needs no event buffers
  trace.collect_health = true;

  HealthRun run;
  run.result = runner.run(scenario, scheme, trace);
  run.reps = trace.healths.size();

  const std::string label = scenario.name + " / " + scheme_name(scheme);
  std::ostringstream alerts;
  obs::AlertWriter writer(alerts, obs::ExportFormat::kJsonl);
  writer.write(trace, label);
  run.alerts_jsonl = alerts.str();

  run.inline_health = obs::summarize_health(trace);
  obs::AnalysisReport report;
  report.label = label;
  report.reps = static_cast<int>(trace.healths.size());
  report.health = run.inline_health;
  std::ostringstream json;
  obs::write_report_json(json, {report});
  run.inline_report_json = json.str();
  return run;
}

TEST(HealthPipeline, InjectedFailuresRaiseResolvedIncidentsWithSoundBlame) {
  ThreadPool pool(8);
  const HealthRun run = run_health(/*failures=*/true, &pool);

  ASSERT_EQ(run.reps, 2u);
  ASSERT_TRUE(run.inline_health.enabled);
  EXPECT_GT(run.inline_health.violations, 0u);
  ASSERT_FALSE(run.inline_health.alerts.empty())
      << "two 4 s failure bursts must trip the burn detector";

  // The detection actually detected: the first alert fired after the first
  // violation, within the same run (MTTD is defined and sane).
  EXPECT_GE(run.inline_health.first_violation_ms, 0.0);
  EXPECT_GE(run.inline_health.mttd_ms, 0.0);
  EXPECT_LT(run.inline_health.mttd_ms, 30'000.0);

  // Causes the attribution engine actually charged in this run.
  std::vector<std::string> charged;
  for (int i = 0; i < telemetry::kViolationCauseCount; ++i) {
    if (run.result.combined.violations_by_cause[static_cast<std::size_t>(i)] >
        0.0) {
      charged.push_back(std::string(telemetry::violation_cause_name(
          static_cast<telemetry::ViolationCause>(i))));
    }
  }
  ASSERT_FALSE(charged.empty());

  for (const obs::HealthAlert& alert : run.inline_health.alerts) {
    // Lifecycle invariants: open <= fire <= resolve, and an incident that
    // resolved mid-run did so after real clear evaluations.
    EXPECT_LE(alert.open_ms, alert.fire_ms);
    EXPECT_LE(alert.fire_ms, alert.resolve_ms);
    EXPECT_GT(alert.ticks_breached, 0u);
    EXPECT_GT(alert.peak_severity, 0.0);
    // Burn alerts carry real violations in-window (not false positives) and
    // blame a cause that attribution actually charged.
    if (alert.detector == "burn_rate") {
      EXPECT_GT(alert.violations, 0u) << alert.detector << " " << alert.model;
      EXPECT_NE(std::find(charged.begin(), charged.end(), alert.blame),
                charged.end())
          << "blame '" << alert.blame << "' was never charged by attribution";
    }
  }
}

TEST(HealthPipeline, CompliantRunRaisesZeroAlerts) {
  // Paldia's cold ramp off the CPU start node is itself a (real) incident,
  // so the compliant reference pins the V100 from t = 0: no hardware
  // switch, no sustained burn, nothing for the detectors to find.
  ThreadPool pool(8);
  const HealthRun run = run_health(/*failures=*/false, &pool,
                                   SchemeId::kMpsOnlyPerf);
  ASSERT_TRUE(run.inline_health.enabled);
  EXPECT_TRUE(run.inline_health.alerts.empty())
      << run.inline_health.alerts.size()
      << " unexpected alerts; stream:\n" << run.alerts_jsonl;
  EXPECT_DOUBLE_EQ(run.inline_health.mttd_ms, -1.0);
  EXPECT_EQ(run.inline_health.false_positives, 0u);
}

TEST(HealthPipeline, AlertStreamBitIdenticalAcrossThreads) {
  ThreadPool pool(8);
  const HealthRun serial = run_health(true, nullptr);
  ASSERT_FALSE(serial.alerts_jsonl.empty());

  const HealthRun pooled = run_health(true, &pool);
  EXPECT_EQ(serial.alerts_jsonl, pooled.alerts_jsonl);
  EXPECT_EQ(serial.inline_report_json, pooled.inline_report_json);
}

TEST(HealthPipeline, OfflineAlertAnalysisMatchesInlineByteForByte) {
  ThreadPool pool(8);
  const HealthRun run = run_health(true, &pool);

  // Same path `paldia-analyze --alerts` takes: parse the stream, rebuild
  // the health section, serialize the report.
  std::vector<obs::AnalysisReport> reports;
  std::string error;
  ASSERT_TRUE(obs::analyze_alert_stream(run.alerts_jsonl, &reports, &error))
      << error;
  ASSERT_EQ(reports.size(), 1u);
  std::ostringstream offline;
  obs::write_report_json(offline, reports);
  EXPECT_EQ(run.inline_report_json, offline.str());
}

TEST(HealthPipeline, ChromeTraceGainsAHealthLane) {
  ThreadPool pool(4);
  Runner runner(models::Zoo::instance(), hw::Catalog::instance(), &pool,
                health_options());
  const Scenario scenario = health_scenario(true);
  obs::RunTrace trace;
  trace.collect_health = true;  // events on too: the lane joins the pids
  trace.config.timeline = true;  // as --trace-out records it
  const RunResult result = runner.run(scenario, SchemeId::kPaldia, trace);
  (void)result;
  std::ostringstream chrome;
  obs::write_chrome_trace(chrome, trace, scenario.name);
  EXPECT_NE(chrome.str().find("\"health\""), std::string::npos);
  EXPECT_NE(chrome.str().find("burn_rate"), std::string::npos);
}

}  // namespace
}  // namespace paldia::exp
