// End-to-end tests of the tracing pipeline on a real (small) simulated run:
// phase durations sum exactly to end-to-end latency, the decision log has
// one record per monitor tick consistent with the candidate sweep, and the
// serialized Chrome trace / JSONL exports are byte-identical between serial
// and parallel repetition execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <map>
#include <sstream>
#include <streambuf>
#include <string>

#include "src/core/framework.hpp"
#include "src/exp/runner.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/obs/export.hpp"
#include "src/obs/tracer.hpp"
#include "src/trace/generators.hpp"

namespace paldia::obs {
namespace {

exp::Scenario small_scenario(int repetitions = 2) {
  exp::Scenario scenario;
  scenario.name = "trace_export";
  trace::PoissonOptions options;
  options.mean_rps = 30.0;
  options.duration_ms = seconds(30);
  scenario.workloads.push_back(
      exp::WorkloadSpec{models::ModelId::kResNet50,
                        trace::make_poisson_trace(options)});
  scenario.repetitions = repetitions;
  return scenario;
}

TEST(TraceExport, PhaseDurationsSumToEndToEndLatency) {
  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  RunTrace trace;
  const auto result =
      runner.run(small_scenario(1), exp::SchemeId::kPaldia, trace);
  ASSERT_EQ(trace.reps.size(), 1u);
  EXPECT_EQ(trace.dropped_events(), 0u);

  const Tracer& tracer = *trace.reps[0];
  std::size_t requests_seen = 0;
  const auto& events = tracer.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].type != TraceEvent::Type::kRequest) continue;
    ++requests_seen;
    const TraceEvent& parent = events[i];
    // The three phases follow contiguously (atomic 4-event reservation).
    ASSERT_LE(i + 3, events.size() - 0u);
    double phase_sum = 0.0;
    TimeMs cursor = parent.start_ms;
    for (std::size_t p = i + 1; p <= i + 3; ++p) {
      ASSERT_EQ(events[p].type, TraceEvent::Type::kPhase);
      ASSERT_EQ(events[p].id, parent.id);
      EXPECT_DOUBLE_EQ(events[p].start_ms, cursor);
      cursor = events[p].end_ms;
      phase_sum += events[p].end_ms - events[p].start_ms;
    }
    // queue + dispatch + execute == arrival -> completion, exactly.
    EXPECT_DOUBLE_EQ(phase_sum, parent.end_ms - parent.start_ms);
    EXPECT_DOUBLE_EQ(cursor, parent.end_ms);
  }
  // The run served real traffic: ~30 rps * 30 s, minus drops.
  EXPECT_GT(requests_seen, 100u);
  EXPECT_EQ(requests_seen, static_cast<std::size_t>(result.combined.requests));
  EXPECT_EQ(tracer.open_spans(), 0);
  EXPECT_EQ(tracer.unbalanced_spans(), 0u);
}

TEST(TraceExport, OneDecisionPerMonitorTickConsistentWithSweep) {
  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  RunTrace trace;
  (void)runner.run(small_scenario(1), exp::SchemeId::kPaldia, trace);
  const Tracer& tracer = *trace.reps[0];
  const auto& decisions = tracer.decisions();
  ASSERT_FALSE(decisions.empty());
  EXPECT_EQ(tracer.dropped_decisions(), 0u);

  // One record per monitor tick: timestamps advance by exactly the monitor
  // interval (Algorithm 1's W, 500 ms by default).
  const DurationMs interval = core::FrameworkConfig{}.monitor_interval_ms;
  for (std::size_t i = 1; i < decisions.size(); ++i) {
    EXPECT_DOUBLE_EQ(decisions[i].t_ms - decisions[i - 1].t_ms, interval) << i;
  }

  std::size_t with_sweep = 0;
  for (const DecisionRecord& record : decisions) {
    if (!record.has_sweep) continue;
    ++with_sweep;
    // The raw winner must appear in the recorded candidate sweep, with
    // feasibility matching the decision's summary bit.
    const auto it = std::find_if(
        record.candidates.begin(), record.candidates.end(),
        [&](const CandidateEval& c) { return c.node == record.raw_choice; });
    ASSERT_NE(it, record.candidates.end());
    EXPECT_EQ(it->feasible, record.raw_feasible);
    EXPECT_DOUBLE_EQ(it->t_max_ms, record.raw_t_max_ms);
    if (record.cpu_short_circuit) {
      EXPECT_FALSE(it->is_gpu);
      EXPECT_TRUE(record.raw_feasible);
    } else if (record.raw_feasible && it->is_gpu) {
      // choose_best_HW picks the cheapest feasible GPU within the band of
      // the most performant feasible one.
      EXPECT_LE(it->t_max_ms, record.best_t_max_ms + record.band_ms + 1e-9);
      for (const CandidateEval& other : record.candidates) {
        if (!other.feasible || !other.is_gpu) continue;
        if (other.t_max_ms > record.best_t_max_ms + record.band_ms) continue;
        EXPECT_LE(it->price_per_hour, other.price_per_hour + 1e-12)
            << "winner must be the cheapest within the band";
      }
    }
    EXPECT_GE(record.wait_ctr, 0);
    EXPECT_GE(record.downgrade_ctr, 0);
  }
  EXPECT_GT(with_sweep, 0u);
  // Hysteresis can only hold or confirm the raw choice, and a switch is
  // only begun when the final choice differs from the serving node.
  for (const DecisionRecord& record : decisions) {
    if (record.switch_begun) {
      EXPECT_NE(record.final_choice, record.current);
    }
  }
}

TEST(TraceExport, SerialAndParallelRunsExportIdenticalBytes) {
  ThreadPool pool(4);
  exp::Runner serial(models::Zoo::instance(), hw::Catalog::instance());
  exp::Runner parallel(models::Zoo::instance(), hw::Catalog::instance(), &pool);
  const auto scenario = small_scenario(4);

  RunTrace trace_a;
  RunTrace trace_b;
  const auto result_a = serial.run(scenario, exp::SchemeId::kPaldia, trace_a);
  const auto result_b = parallel.run(scenario, exp::SchemeId::kPaldia, trace_b);

  std::ostringstream chrome_a, chrome_b;
  write_chrome_trace(chrome_a, trace_a, "serial");
  write_chrome_trace(chrome_b, trace_b, "serial");  // same label on purpose
  EXPECT_EQ(chrome_a.str(), chrome_b.str());
  EXPECT_FALSE(chrome_a.str().empty());

  std::ostringstream metrics_a, metrics_b;
  MetricsWriter writer_a(metrics_a, ExportFormat::kJsonl);
  MetricsWriter writer_b(metrics_b, ExportFormat::kJsonl);
  writer_a.write(result_a.combined, "test");
  writer_b.write(result_b.combined, "test");
  EXPECT_EQ(metrics_a.str(), metrics_b.str());

  std::ostringstream decisions_a, decisions_b;
  DecisionLogWriter log_a(decisions_a, ExportFormat::kJsonl);
  DecisionLogWriter log_b(decisions_b, ExportFormat::kJsonl);
  log_a.write(trace_a, "Paldia", scenario.name);
  log_b.write(trace_b, "Paldia", scenario.name);
  EXPECT_EQ(decisions_a.str(), decisions_b.str());
  EXPECT_FALSE(decisions_a.str().empty());
}

TEST(TraceExport, ChromeTraceIsStructurallySoundJson) {
  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  RunTrace trace;
  (void)runner.run(small_scenario(1), exp::SchemeId::kPaldia, trace);
  std::ostringstream out;
  write_chrome_trace(out, trace, "sanity");
  const std::string json = out.str();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // batch slices

  // Balanced delimiters and no unescaped control characters. Event names
  // are identifiers, so braces/brackets never appear inside strings and a
  // straight count is a valid structural check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '"') % 2, 0);
  for (const char c : json) {
    ASSERT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n') << int(c);
  }
  // No NaN/Infinity tokens — they are not valid JSON.
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(TraceExport, CsvAndJsonlWritersEmitOneRowPerRecord) {
  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  RunTrace trace;
  const auto result =
      runner.run(small_scenario(2), exp::SchemeId::kPaldia, trace);

  std::ostringstream csv;
  DecisionLogWriter writer(csv, ExportFormat::kCsv);
  writer.write(trace, "Paldia", "trace_export");
  std::size_t total_decisions = 0;
  for (const auto& rep : trace.reps) total_decisions += rep->decisions().size();
  const std::string text = csv.str();
  const auto lines = std::count(text.begin(), text.end(), '\n');
  EXPECT_EQ(static_cast<std::size_t>(lines), total_decisions + 1);  // + header

  std::ostringstream jsonl;
  MetricsWriter metrics(jsonl, ExportFormat::kJsonl);
  metrics.write(result.combined, "fig");
  const std::string row = jsonl.str();
  EXPECT_EQ(std::count(row.begin(), row.end(), '\n'), 1);
  EXPECT_NE(row.find("\"slo_compliance\""), std::string::npos);
}

/// A stream buffer that takes no bytes, as a full disk or a closed pipe.
class RefusingBuffer : public std::streambuf {
 protected:
  int_type overflow(int_type) override { return traits_type::eof(); }
  std::streamsize xsputn(const char*, std::streamsize) override { return 0; }
};

/// A traced run with every stream's source filled: decisions, rollup cells
/// and a health engine.
RunTrace streamed_run(telemetry::RunMetrics* metrics) {
  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  RunTrace trace;
  trace.collect_rollups = true;
  trace.collect_health = true;
  *metrics = runner.run(small_scenario(1), exp::SchemeId::kPaldia, trace).combined;
  return trace;
}

/// Writes a run into each writer, whose destination takes no bytes: every
/// writer must report `expected_error` and stop.
void expect_writes_fail(MetricsWriter& metrics_writer, DecisionLogWriter& decisions,
                        RollupWriter& rollups, AlertWriter& alerts,
                        const std::string& expected_error) {
  telemetry::RunMetrics metrics;
  const RunTrace trace = streamed_run(&metrics);
  ASSERT_FALSE(trace.reps.empty() || trace.reps[0]->decisions().empty());
  const std::array<const ExportStream*, 4> writers = {&metrics_writer, &decisions,
                                                      &rollups, &alerts};
  for (const ExportStream* writer : writers) {
    ASSERT_TRUE(writer->ok()) << writer->error();
  }

  for (int row = 0; row < 2000; ++row) metrics_writer.write(metrics, "fig");
  decisions.write(trace, "Paldia", "trace_export");
  rollups.write(trace, "trace_export / Paldia");
  alerts.write(trace, "trace_export / Paldia");
  for (const ExportStream* writer : writers) {
    EXPECT_FALSE(writer->ok());
    EXPECT_EQ(writer->error(), expected_error);
  }
}

TEST(ExportStream, WritersReportAStreamThatTakesNoBytes) {
  RefusingBuffer buffer;
  std::ostream out(&buffer);
  std::ostream csv_out(&buffer);
  MetricsWriter metrics(csv_out, ExportFormat::kCsv);
  DecisionLogWriter decisions(out, ExportFormat::kJsonl);
  RollupWriter rollups(out, ExportFormat::kJsonl);
  AlertWriter alerts(out, ExportFormat::kJsonl);
  expect_writes_fail(metrics, decisions, rollups, alerts,
                     "write failed for output stream");
}

TEST(ExportStream, WritersReportAFullDevice) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full here";
  MetricsWriter metrics("/dev/full");
  DecisionLogWriter decisions("/dev/full");
  RollupWriter rollups("/dev/full");
  AlertWriter alerts("/dev/full");
  expect_writes_fail(metrics, decisions, rollups, alerts, "write failed for /dev/full");
}

TEST(ExportStream, HealthyStreamStaysOk) {
  telemetry::RunMetrics metrics;
  const RunTrace trace = streamed_run(&metrics);
  std::ostringstream out;
  AlertWriter alerts(out, ExportFormat::kJsonl);
  alerts.write(trace, "trace_export / Paldia");
  EXPECT_TRUE(alerts.ok()) << alerts.error();
  EXPECT_TRUE(alerts.error().empty());
  EXPECT_NE(out.str().find("\"row\":\"summary\""), std::string::npos);
}

TEST(TraceExport, DeriveTracePathInsertsScenarioAndScheme) {
  EXPECT_EQ(derive_trace_path("out.json", "azure", "Paldia"),
            "out.azure_Paldia.json");
  // Extension-less bases get ".json"; non-alphanumerics sanitize to '-'.
  EXPECT_EQ(derive_trace_path("trace", "wiki", "INFless($)"),
            "trace.wiki_INFless---.json");
  EXPECT_EQ(derive_trace_path("dir.v2/trace", "a b", "X"),
            "dir.v2/trace.a-b_X.json");
}

}  // namespace
}  // namespace paldia::obs
