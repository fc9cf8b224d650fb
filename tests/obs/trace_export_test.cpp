// End-to-end tests of the tracing pipeline on a real (small) simulated run:
// phase durations sum exactly to end-to-end latency, a request's Chrome
// records match the four-event reference byte for byte, the decision log
// has one record per monitor tick consistent with the candidate sweep, and
// the serialized Chrome trace / JSONL exports are byte-identical between
// serial and parallel repetition execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <map>
#include <random>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "src/common/json.hpp"
#include "src/core/framework.hpp"
#include "src/exp/runner.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/obs/export.hpp"
#include "src/obs/sampler.hpp"
#include "src/obs/text_format.hpp"
#include "src/obs/tracer.hpp"
#include "src/trace/generators.hpp"

namespace paldia::obs {
namespace {

/// A Chrome trace carries the timeline: the framework's gauge sweep, the
/// attribution engine's latency gauges and the monitor_tick spans.
bool has_timeline(const std::string& chrome) {
  return chrome.find("\"name\":\"in_flight_batches\"") != std::string::npos &&
         chrome.find("\"name\":\"latency_sketch_p99_ms\"") != std::string::npos &&
         chrome.find("\"ph\":\"B\",") != std::string::npos &&
         chrome.find("\"name\":\"monitor_tick\"") != std::string::npos;
}

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
  trace.config.timeline = true;  // the monitor_tick spans checked below
  const auto result =
      runner.run(small_scenario(1), exp::SchemeId::kPaldia, trace);
  ASSERT_EQ(trace.reps.size(), 1u);
  EXPECT_EQ(trace.dropped_events(), 0u);

  const Tracer& tracer = *trace.reps[0];
  std::size_t requests_seen = 0;
  std::size_t spans_opened = 0;
  for (const TraceEvent& event : tracer.events()) {
    spans_opened += event.type == TraceEvent::Type::kSpanBegin ? 1 : 0;
    if (event.type != TraceEvent::Type::kRequest) continue;
    ++requests_seen;
    // queue + dispatch + execute == arrival -> completion, exactly.
    const double queue = event.submit_ms - event.start_ms;
    const double dispatch = event.exec_start_ms - event.submit_ms;
    const double execute = event.end_ms - event.exec_start_ms;
    EXPECT_GE(queue, 0.0);
    EXPECT_GE(dispatch, 0.0);
    EXPECT_GE(execute, 0.0);
    EXPECT_DOUBLE_EQ(queue + dispatch + execute, event.end_ms - event.start_ms);
  }
  // The run served real traffic: ~30 rps * 30 s, minus drops.
  EXPECT_GT(requests_seen, 100u);
  EXPECT_EQ(requests_seen, static_cast<std::size_t>(result.combined.requests));
  // Every monitor tick's span closed, and there were spans to close.
  EXPECT_GT(spans_opened, 0u);
  EXPECT_EQ(tracer.open_spans(), 0);
  EXPECT_EQ(tracer.unbalanced_spans(), 0u);

  // In the export, each request's phases are contiguous: the queue opens at
  // the request's "b", each phase opens where the last closed, and
  // "execute" closes at the request's "e", so their dur_ms sum to its
  // latency_ms.
  std::ostringstream out;
  write_chrome_trace(out, trace, "phases");
  const auto parsed = common::parse_json(out.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  struct Open {
    double cursor_us = 0.0;
    double latency_ms = 0.0;
    double phase_sum_ms = 0.0;
    int phases = 0;
  };
  std::map<std::int64_t, Open> open;
  std::size_t closed = 0;
  for (const common::JsonValue& event : parsed.value.find("traceEvents")->as_array()) {
    if (event.string_or("cat", "") != "request") continue;
    const auto id = static_cast<std::int64_t>(event.number_or("id", -1));
    const std::string ph = event.string_or("ph", "");
    const std::string name = event.string_or("name", "");
    const double ts = event.number_or("ts", -1.0);
    if (name == "request" && ph == "b") {
      open[id] = Open{ts, event.find("args")->number_or("latency_ms", -1.0)};
      continue;
    }
    ASSERT_EQ(open.count(id), 1u) << id;
    Open& request = open[id];
    if (name == "request") {
      EXPECT_EQ(request.phases, 3) << id;
      EXPECT_EQ(ts, request.cursor_us) << id;
      EXPECT_NEAR(request.phase_sum_ms, request.latency_ms,
                  1e-9 * std::max(1.0, request.latency_ms))
          << id;
      open.erase(id);
      ++closed;
    } else if (ph == "b") {
      EXPECT_EQ(ts, request.cursor_us) << id << " " << name;
    } else {
      request.cursor_us = ts;
      request.phase_sum_ms += event.find("args")->number_or("dur_ms", -1.0);
      ++request.phases;
    }
  }
  EXPECT_TRUE(open.empty());
  EXPECT_EQ(closed, requests_seen);
}

// --- Chrome lifecycle reference ---------------------------------------------
//
// The reference a request's export must reproduce byte for byte: the
// lifecycle as four events (the request plus its queue, dispatch and
// execute phases) and the Chrome records each of them is written as — the
// request's "b" with its args, a "b" per phase, an "e" per phase carrying
// dur_ms, and the request's "e" after the execute phase closes.

struct ReferenceEvent {
  const char* name;  // "request", "queue", "dispatch" or "execute"
  TimeMs start_ms;
  TimeMs end_ms;
};

struct ReferenceLifecycle {
  std::int64_t id;
  int model;
  int node;
  cluster::ShareMode mode;
  int batch_size;
  int spatial;
  int temporal;
  TimeMs arrival_ms, submit_ms, start_ms, end_ms;
  DurationMs solo_ms, interference_ms, cold_ms;

  std::array<ReferenceEvent, 4> compose() const {
    return {{{"request", arrival_ms, end_ms},
             {"queue", arrival_ms, submit_ms},
             {"dispatch", submit_ms, start_ms},
             {"execute", start_ms, end_ms}}};
  }
};

std::string reference_record(const ReferenceLifecycle& request, const char* ph,
                             const char* name, TimeMs ts, const std::string& args) {
  std::string body = "{\"ph\":\"" + std::string(ph) +
                     "\",\"pid\":0,\"tid\":0,\"ts\":" + format_timestamp_us(ts) +
                     ",\"cat\":\"request\",\"id\":" + std::to_string(request.id) +
                     ",\"name\":\"" + name + "\"";
  if (!args.empty()) body += ",\"args\":{" + args + "}";
  return body + "}";
}

std::vector<std::string> reference_records(const ReferenceLifecycle& request) {
  static constexpr const char* kLanes[] = {"mps", "time-shared", "cpu"};
  std::vector<std::string> out;
  for (const ReferenceEvent& event : request.compose()) {
    if (std::string_view(event.name) == "request") {
      const std::string args =
          "\"model\":\"" +
          json_escape(models::model_id_name(models::ModelId(request.model))) +
          "\",\"node\":\"" +
          json_escape(hw::node_type_name(hw::NodeType(request.node))) +
          "\",\"lane\":\"" + kLanes[static_cast<int>(request.mode)] +
          "\",\"batch_size\":" + std::to_string(request.batch_size) +
          ",\"spatial\":" + std::to_string(request.spatial) +
          ",\"temporal\":" + std::to_string(request.temporal) +
          ",\"latency_ms\":" + format_number(event.end_ms - event.start_ms) +
          ",\"solo_ms\":" + format_number(request.solo_ms) +
          ",\"interference_ms\":" + format_number(request.interference_ms) +
          ",\"cold_start_ms\":" + format_number(request.cold_ms);
      out.push_back(reference_record(request, "b", "request", event.start_ms, args));
      continue;
    }
    out.push_back(reference_record(request, "b", event.name, event.start_ms, ""));
    out.push_back(reference_record(
        request, "e", event.name, event.end_ms,
        "\"dur_ms\":" + format_number(event.end_ms - event.start_ms)));
    if (std::string_view(event.name) == "execute") {
      out.push_back(reference_record(request, "e", "request", event.end_ms, ""));
    }
  }
  return out;
}

/// The export's request records, one per line, in file order.
std::vector<std::string> exported_request_records(const RunTrace& trace) {
  std::ostringstream out;
  write_chrome_trace(out, trace);
  std::istringstream lines(out.str());
  std::vector<std::string> records;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"cat\":\"request\"") == std::string::npos) continue;
    if (!line.empty() && line.back() == ',') line.pop_back();
    records.push_back(line);
  }
  return records;
}

TEST(TraceExport, LifecycleExportMatchesTheFourEventReference) {
  constexpr std::uint32_t kSampleRate = 3;
  constexpr DurationMs kSlo = 150.0;
  std::array<DurationMs, models::kModelCount> slos{};
  slos.fill(kSlo);
  RunTrace trace;
  trace.config.sample_rate = kSampleRate;
  trace.reps.push_back(std::make_unique<Tracer>(trace.config));
  Tracer& tracer = *trace.reps[0];
  tracer.set_model_slos(slos);
  const TraceSampler sampler(kSampleRate);

  std::mt19937_64 rng(20260419);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto span = [&](double max_ms) {
    // A quarter of the phases are zero-length.
    return unit(rng) < 0.25 ? 0.0 : max_ms * unit(rng);
  };
  std::vector<std::string> expected;
  std::int64_t next_id = 1;
  std::size_t zero_phases = 0, cold = 0, requeued = 0, sampled_out = 0;
  TimeMs now = 0.0;
  for (int batch = 0; batch < 400; ++batch) {
    ReferenceLifecycle shared{};
    shared.model = static_cast<int>(rng() % models::kModelCount);
    shared.node = static_cast<int>(rng() % hw::kNodeTypeCount);
    shared.mode = static_cast<cluster::ShareMode>(rng() % 3);
    const int members = 1 + static_cast<int>(rng() % 6);
    shared.batch_size = members;
    shared.spatial = static_cast<int>(rng() % (members + 1));
    shared.temporal = members - shared.spatial;
    now += 40.0 * unit(rng);
    std::vector<cluster::Request> requests(static_cast<std::size_t>(members));
    for (auto& request : requests) {
      request.id = RequestId{next_id++};
      request.model = models::ModelId(shared.model);
      request.arrival_ms = now - span(120.0);
      if (rng() % 6 == 0) {
        // A failed batch sent it back once before this completion.
        tracer.request_requeued(request.id.value, request.model,
                                request.arrival_ms, hw::NodeType(shared.node));
        ++requeued;
      }
    }
    shared.submit_ms = now;
    shared.cold_ms = rng() % 5 == 0 ? 50.0 + 400.0 * unit(rng) : 0.0;
    cold += shared.cold_ms > 0.0 ? 1 : 0;
    shared.start_ms = shared.submit_ms + shared.cold_ms + span(30.0);
    shared.solo_ms = span(90.0);
    shared.interference_ms = span(20.0);
    shared.end_ms = shared.start_ms + shared.solo_ms + shared.interference_ms;
    for (const auto& request : requests) {
      ReferenceLifecycle lifecycle = shared;
      lifecycle.id = request.id.value;
      lifecycle.arrival_ms = request.arrival_ms;
      const bool violated = lifecycle.end_ms - lifecycle.arrival_ms > kSlo;
      if (!sampler.keep(lifecycle.id, violated)) {
        ++sampled_out;
        continue;
      }
      for (const ReferenceEvent& event : lifecycle.compose()) {
        zero_phases += event.start_ms == event.end_ms ? 1 : 0;
      }
      const auto records = reference_records(lifecycle);
      expected.insert(expected.end(), records.begin(), records.end());
    }
    for (const auto& request : requests) {
      tracer.record_request_lifecycle(
          request.id.value, request.model, hw::NodeType(shared.node), shared.mode,
          members, shared.spatial, shared.temporal, request.arrival_ms,
          shared.submit_ms, shared.start_ms, shared.end_ms, shared.solo_ms,
          shared.interference_ms, shared.cold_ms);
    }
  }
  // The seeds reach every case the reference distinguishes.
  EXPECT_GT(zero_phases, 100u);
  EXPECT_GT(cold, 20u);
  EXPECT_GT(requeued, 50u);
  EXPECT_GT(sampled_out, 50u);
  EXPECT_EQ(tracer.sampled_out_total(), sampled_out);
  EXPECT_EQ(tracer.dropped_events(), 0u);

  const std::vector<std::string> exported = exported_request_records(trace);
  ASSERT_EQ(exported.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(exported[i], expected[i]) << "record " << i;
  }
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

  // The timeline is on, as with --trace-out: the gauges, per-tick counter
  // samples and monitor_tick spans must not depend on the thread count
  // either.
  RunTrace trace_a;
  RunTrace trace_b;
  trace_a.config.timeline = true;
  trace_b.config.timeline = true;
  const auto result_a = serial.run(scenario, exp::SchemeId::kPaldia, trace_a);
  const auto result_b = parallel.run(scenario, exp::SchemeId::kPaldia, trace_b);

  std::ostringstream chrome_a, chrome_b;
  write_chrome_trace(chrome_a, trace_a, "serial");
  write_chrome_trace(chrome_b, trace_b, "serial");  // same label on purpose
  EXPECT_EQ(chrome_a.str(), chrome_b.str());
  EXPECT_TRUE(has_timeline(chrome_a.str()));

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
  trace.config.timeline = true;  // every record kind a Chrome trace carries
  (void)runner.run(small_scenario(1), exp::SchemeId::kPaldia, trace);
  std::ostringstream out;
  write_chrome_trace(out, trace, "sanity");
  const std::string json = out.str();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // batch slices
  EXPECT_TRUE(has_timeline(json));

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

/// A CSV export of a two-rep run: `header` as its first line and nowhere
/// else, then `rows` rows, every row of rep 0 before those of rep 1. The rep
/// is cell `rep_column` of a row; no cell before it holds a comma.
void expect_csv_rows(const std::string& text, const std::string& header,
                     std::size_t rows, std::size_t rep_column) {
  ASSERT_GT(rows, 0u);
  std::istringstream in(text);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), rows + 1);
  EXPECT_EQ(lines[0], header);
  std::vector<int> reps;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_NE(lines[i], header);
    std::istringstream row(lines[i]);
    std::string cell;
    for (std::size_t c = 0; c <= rep_column; ++c) std::getline(row, cell, ',');
    reps.push_back(std::stoi(cell));
  }
  EXPECT_TRUE(std::is_sorted(reps.begin(), reps.end()));
  EXPECT_EQ(reps.front(), 0);
  EXPECT_EQ(reps.back(), 1);
}

TEST(TraceExport, CsvAndJsonlWritersEmitOneRowPerRecord) {
  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  RunTrace trace;
  trace.collect_rollups = true;
  trace.collect_health = true;
  const auto result =
      runner.run(small_scenario(2), exp::SchemeId::kPaldia, trace);
  ASSERT_EQ(trace.reps.size(), 2u);

  std::ostringstream csv;
  DecisionLogWriter writer(csv, ExportFormat::kCsv);
  writer.write(trace, "Paldia", "trace_export");
  std::size_t total_decisions = 0;
  for (const auto& rep : trace.reps) total_decisions += rep->decisions().size();
  {
    SCOPED_TRACE("decisions");
    expect_csv_rows(csv.str(),
                    "scheme,scenario,rep,t_ms,current,chosen,final,switch_begun,"
                    "feasible,t_max_ms,best_t_max_ms,band_ms,wait_ctr,"
                    "downgrade_ctr,emergency_ctr,cpu_short_circuit,predicted_rps,"
                    "observed_rps,pool_size,candidates",
                    total_decisions, 2);
  }

  std::ostringstream rollup_csv;
  RollupWriter rollups(rollup_csv, ExportFormat::kCsv);
  rollups.write(trace, "trace_export / Paldia");
  std::size_t cells = 0;
  for (const auto& rollup : trace.rollups) cells += rollup->cells().size();
  {
    SCOPED_TRACE("rollups");
    expect_csv_rows(rollup_csv.str(),
                    "run,rep,window,window_start_ms,window_end_ms,model,node,"
                    "completed,violations,unserved,viol_cold_start,"
                    "viol_gateway_queue,viol_batching,viol_mps_interference,"
                    "viol_hardware_switch,viol_failure_retry,viol_execution,"
                    "viol_unserved,latency_count,latency_mean_ms,latency_p50_ms,"
                    "latency_p95_ms,latency_p99_ms,latency_max_ms,hist,"
                    "queue_depth_mean,queue_depth_samples,in_flight_mean,"
                    "in_flight_samples",
                    cells, 1);
  }

  std::ostringstream alert_csv;
  AlertWriter alerts(alert_csv, ExportFormat::kCsv);
  alerts.write(trace, "trace_export / Paldia");
  std::size_t alert_rows = 0;
  for (const auto& health : trace.healths) {
    alert_rows += health->alerts().size() + 1;  // + the rep's summary row
  }
  {
    SCOPED_TRACE("alerts");
    expect_csv_rows(alert_csv.str(),
                    "run,rep,row,detector,model,node,open_ms,fire_ms,resolve_ms,"
                    "resolved_at_end,peak_severity,ticks_breached,blame,"
                    "violations,completed,first_violation_ms,evaluations,alerts",
                    alert_rows, 1);
  }

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
