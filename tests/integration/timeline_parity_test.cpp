// The Chrome-only timeline (TracerConfig::timeline: gauges, per-tick
// counter samples, monitor_tick spans) must not change any other export.
// A Runner run on Table II with the failure injector on and a sampled
// FleetSim run over a generated catalog each run twice, timeline off and
// on, with every stream: report, decision log, metrics, rollups and alerts
// must be byte-identical, and the timeline-off inline report must equal
// what paldia-analyze rebuilds from the timeline-on Chrome export.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.hpp"
#include "src/exp/fleet_sim.hpp"
#include "src/exp/runner.hpp"
#include "src/hw/catalog_gen.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/obs/export.hpp"
#include "src/obs/report.hpp"
#include "src/trace/generators.hpp"

namespace paldia::exp {
namespace {

struct Exports {
  std::string report;          // inline report, health section included
  std::string attribution;     // inline report without the health section
  std::string offline_report;  // parse_chrome_trace over the Chrome export
  std::string decisions_jsonl;
  std::string decisions_csv;
  std::string metrics;
  std::string rollups;
  std::string alerts;
  std::size_t gauges = 0;  // "queue_depth" samples the tracers kept
  std::size_t spans = 0;
};

/// A RunTrace with every stream the bench programs can turn on.
obs::RunTrace every_stream(bool timeline) {
  obs::RunTrace trace;
  trace.config.timeline = timeline;
  trace.collect_rollups = true;
  trace.collect_health = true;
  return trace;
}

std::string report_json(const obs::AnalysisReport& report) {
  std::ostringstream out;
  obs::write_report_json(out, {report});
  return out.str();
}

/// Every export of a finished run, written as the bench programs write them.
Exports collect(const obs::RunTrace& trace, const std::string& label,
                const std::vector<telemetry::RunMetrics>& rows) {
  Exports exports;
  obs::AnalysisReport report = obs::analyze_with_zoo(obs::extract_run_data(trace, label));
  exports.attribution = report_json(report);
  report.health = obs::summarize_health(trace);
  exports.report = report_json(report);

  std::ostringstream chrome;
  obs::write_chrome_trace(chrome, trace, label);
  const auto parsed = common::parse_json(chrome.str());
  EXPECT_TRUE(parsed.ok) << parsed.error;
  obs::RunData offline;
  std::string error;
  EXPECT_TRUE(obs::parse_chrome_trace(parsed.value, label, &offline, &error)) << error;
  exports.offline_report = report_json(obs::analyze_with_zoo(offline));

  std::ostringstream jsonl, csv, metrics, rollups, alerts;
  obs::DecisionLogWriter(jsonl, obs::ExportFormat::kJsonl).write(trace, "Paldia", label);
  obs::DecisionLogWriter(csv, obs::ExportFormat::kCsv).write(trace, "Paldia", label);
  obs::MetricsWriter metrics_writer(metrics, obs::ExportFormat::kJsonl);
  for (const auto& row : rows) metrics_writer.write(row, "timeline-test");
  obs::RollupWriter(rollups, obs::ExportFormat::kJsonl).write(trace, label);
  obs::AlertWriter(alerts, obs::ExportFormat::kJsonl).write(trace, label);
  exports.decisions_jsonl = jsonl.str();
  exports.decisions_csv = csv.str();
  exports.metrics = metrics.str();
  exports.rollups = rollups.str();
  exports.alerts = alerts.str();

  for (const auto& tracer : trace.reps) {
    EXPECT_EQ(tracer->dropped_events(), 0u);
    for (const obs::TraceEvent& event : tracer->events()) {
      if (event.type == obs::TraceEvent::Type::kSpanBegin) ++exports.spans;
      if (event.type == obs::TraceEvent::Type::kCounter &&
          std::string_view(event.name) == "queue_depth") {
        ++exports.gauges;
      }
    }
  }
  return exports;
}

void expect_parity(const Exports& off, const Exports& on) {
  // The switch does what it says: only the timeline-on run keeps gauges
  // and spans.
  EXPECT_EQ(off.gauges, 0u);
  EXPECT_EQ(off.spans, 0u);
  EXPECT_GT(on.gauges, 0u);
  EXPECT_GT(on.spans, 0u);

  EXPECT_EQ(off.report, on.report);
  EXPECT_EQ(off.decisions_jsonl, on.decisions_jsonl);
  EXPECT_EQ(off.decisions_csv, on.decisions_csv);
  EXPECT_EQ(off.metrics, on.metrics);
  EXPECT_EQ(off.rollups, on.rollups);
  EXPECT_EQ(off.alerts, on.alerts);
  EXPECT_EQ(off.attribution, on.offline_report);
  EXPECT_NE(off.report.find("\"attribution\""), std::string::npos);
  EXPECT_NE(off.report.find("\"health\""), std::string::npos);
  EXPECT_FALSE(off.decisions_jsonl.empty());
  EXPECT_FALSE(off.rollups.empty());
  EXPECT_FALSE(off.alerts.empty());
}

Exports runner_exports(bool timeline) {
  SchemeFactoryOptions options;
  options.slo_target = 0.99;
  options.burn_fast_ms = 2000.0;
  options.burn_slow_ms = 8000.0;
  Runner runner(models::Zoo::instance(), hw::Catalog::instance(), nullptr, options);
  Scenario scenario;
  scenario.name = "timeline";
  trace::PoissonOptions poisson;
  poisson.mean_rps = 60.0;
  poisson.duration_ms = seconds(30);
  scenario.workloads.push_back(WorkloadSpec{models::ModelId::kResNet50,
                                            trace::make_poisson_trace(poisson)});
  scenario.repetitions = 2;
  scenario.failures = cluster::FailureInjectorConfig{
      .period_ms = seconds(12), .downtime_ms = seconds(4),
      .first_failure_ms = seconds(6)};

  obs::RunTrace trace = every_stream(timeline);
  const RunResult result = runner.run(scenario, SchemeId::kPaldia, trace);
  return collect(trace, "timeline / Paldia", {result.combined});
}

Exports fleet_exports(bool timeline) {
  const hw::Catalog catalog = hw::generate_catalog({.node_count = 16, .seed = 3});
  SchemeFactoryOptions options;
  options.sample_rate = 8;
  FleetSim sim(models::Zoo::instance(), catalog, nullptr, options);
  Scenario scenario;
  scenario.name = "timeline-fleet";
  scenario.base_seed = 21;
  trace::PoissonOptions poisson;
  poisson.mean_rps = 150.0;
  poisson.duration_ms = seconds(20);
  poisson.seed = 5;
  scenario.workloads.push_back(WorkloadSpec{models::ModelId::kResNet50,
                                            trace::make_poisson_trace(poisson)});

  obs::RunTrace trace = every_stream(timeline);
  const FleetSimResult result = sim.run(scenario, SchemeId::kPaldia, 4, &trace);
  EXPECT_GT(trace.sampled_out(), 0u);
  std::vector<telemetry::RunMetrics> rows;
  for (const RunResult& endpoint : result.per_endpoint) rows.push_back(endpoint.combined);
  rows.push_back(result.combined);
  return collect(trace, "timeline-fleet / Paldia", rows);
}

TEST(TimelineParity, RunnerExportsDoNotDependOnTheTimeline) {
  expect_parity(runner_exports(false), runner_exports(true));
}

TEST(TimelineParity, SampledFleetExportsDoNotDependOnTheTimeline) {
  expect_parity(fleet_exports(false), fleet_exports(true));
}

}  // namespace
}  // namespace paldia::exp
