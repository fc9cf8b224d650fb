// Unit tests for the analysis layer behind --report-out / paldia-analyze:
// the exporter-quantization helpers, the inline-vs-offline producer parity
// (extract_run_data over a RunTrace must equal parse_chrome_trace over its
// serialized form, down to the report JSON bytes), and analyze()'s
// cause-sum / unserved accounting.
#include "src/obs/report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/telemetry/slo_tracker.hpp"

namespace paldia::obs {
namespace {

TEST(Quantize, TimestampIsIdempotent) {
  // The inline extractor pre-quantizes through the exporter's "%.3f" (us)
  // format; applying it twice must be a no-op or parity breaks.
  for (const double ms : {0.0, 0.1234567, 1000.0 / 3.0, 98765.4321, 1e-7}) {
    const double once = quantize_timestamp(ms);
    EXPECT_DOUBLE_EQ(quantize_timestamp(once), once) << ms;
    EXPECT_NEAR(once, ms, 5e-7) << ms;  // %.3f of microseconds: ns resolution
  }
}

TEST(Quantize, NumberIsIdempotentAndSanitizesNonFinite) {
  for (const double x : {0.0, 1.0 / 3.0, 123456.789, 1e-12, -42.5}) {
    const double once = quantize_number(x);
    EXPECT_DOUBLE_EQ(quantize_number(once), once) << x;
    EXPECT_NEAR(once, x, std::abs(x) * 1e-9);
  }
  EXPECT_DOUBLE_EQ(quantize_number(std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_DOUBLE_EQ(quantize_number(std::nan("")), 0.0);
}

/// A small but feature-complete RunTrace: lifecycles (compliant, violating,
/// retried), a batch, a switch blackout, a decision sweep, and unserved
/// counters — across two repetitions.
RunTrace make_trace() {
  RunTrace trace;
  for (int rep = 0; rep < 2; ++rep) {
    auto tracer = std::make_unique<Tracer>();
    const double base = rep * 10.0;  // desync the reps slightly

    // Compliant request.
    tracer->record_request_lifecycle(
        1, models::ModelId::kResNet50, hw::NodeType::kG3s_xlarge,
        cluster::ShareMode::kSpatial, 4, 3, 1, base + 100.0, base + 102.0,
        base + 105.0, base + 195.0, 85.0, 5.0, 0.0);
    // Interference-dominated violation.
    tracer->record_request_lifecycle(
        2, models::ModelId::kResNet50, hw::NodeType::kG3s_xlarge,
        cluster::ShareMode::kSpatial, 4, 3, 1, base + 200.0, base + 203.0,
        base + 206.0, base + 520.0, 90.0, 224.0, 0.0);
    // Retried violation.
    tracer->request_requeued(3, models::ModelId::kVgg19, base + 300.0,
                             hw::NodeType::kG3s_xlarge);
    tracer->record_request_lifecycle(
        3, models::ModelId::kVgg19, hw::NodeType::kP3_2xlarge,
        cluster::ShareMode::kTemporal, 1, 1, 1, base + 300.0, base + 580.0,
        base + 590.0, base + 700.0, 100.0, 0.0, 4.0);

    // Switch blackout plus a request that waited through it.
    tracer->instant("switch_begin", base + 1000.0, hw::NodeType::kP3_2xlarge);
    tracer->record_request_lifecycle(
        4, models::ModelId::kResNet50, hw::NodeType::kP3_2xlarge,
        cluster::ShareMode::kTemporal, 1, 1, 1, base + 1010.0, base + 1290.0,
        base + 1295.0, base + 1340.0, 40.0, 0.0, 0.0);
    tracer->instant("switch_active", base + 1300.0, hw::NodeType::kP3_2xlarge);

    // Batch observation answering the decision below.
    tracer->record_batch(11, models::ModelId::kResNet50, hw::NodeType::kG3s_xlarge,
                         cluster::ShareMode::kSpatial, 4, base + 900.0,
                         base + 905.0, base + 1010.0, 100.0, 0.0);
    DecisionRecord* decision =
        tracer->begin_decision(base + 890.0, hw::NodeType::kG3s_xlarge);
    EXPECT_NE(decision, nullptr) << "decision log full in test setup";
    decision->has_sweep = true;
    decision->predicted_rps = 55.5;
    decision->observed_rps = 50.25;
    CandidateEval candidate;
    candidate.node = hw::NodeType::kG3s_xlarge;
    candidate.t_max_ms = 123.456;
    candidate.feasible = true;
    candidate.is_gpu = true;
    candidate.best_y = 3;
    decision->candidates.push_back(candidate);
    tracer->end_decision(hw::NodeType::kG3s_xlarge, false);

    // Drain-cap leftovers, sampled as the exporters do at run end. The
    // counter carries the model *name*, matching the framework's drain loop.
    const std::string unserved_counter =
        "unserved:" + std::string(models::model_id_name(models::ModelId::kResNet50));
    tracer->count(unserved_counter.c_str(), 2.0);
    tracer->sample_counters(base + 2000.0);

    trace.reps.push_back(std::move(tracer));
  }
  return trace;
}

TEST(Report, AnalyzeCountsCausesAndUnserved) {
  const RunTrace trace = make_trace();
  const AnalysisReport report =
      analyze_with_zoo(extract_run_data(trace, "unit"));

  EXPECT_EQ(report.reps, 2);
  // 4 lifecycles + 2 unserved per rep.
  EXPECT_EQ(report.total.completed, 12u);
  EXPECT_EQ(report.unserved, 4u);
  // Violations: interference + retry + blackout + unserved x2, per rep.
  EXPECT_EQ(report.total.violations, 10u);

  std::uint64_t cause_sum = 0;
  for (const std::uint64_t n : report.total.causes) cause_sum += n;
  EXPECT_EQ(cause_sum, report.total.violations);

  using telemetry::ViolationCause;
  const auto cause = [&](ViolationCause c) {
    return report.total.causes[static_cast<std::size_t>(c)];
  };
  EXPECT_EQ(cause(ViolationCause::kMpsInterference), 2u);
  EXPECT_EQ(cause(ViolationCause::kFailureRetry), 2u);
  EXPECT_EQ(cause(ViolationCause::kHardwareSwitch), 2u);
  EXPECT_EQ(cause(ViolationCause::kUnserved), 4u);

  // Calibration: one decision per rep, answered by the batch that follows.
  EXPECT_EQ(report.calibration.intervals_total, 2);
  EXPECT_EQ(report.calibration.intervals_observed, 2);
  ASSERT_EQ(report.calibration.per_node.size(), 1u);
  EXPECT_EQ(report.calibration.per_node[0].node,
            static_cast<int>(hw::NodeType::kG3s_xlarge));

  // Switch timeline: begin + active per rep, rep-major order.
  ASSERT_EQ(report.switch_timeline.size(), 4u);
  EXPECT_EQ(report.switch_timeline[0].event, "switch_begin");
  EXPECT_EQ(report.switch_timeline[1].event, "switch_active");
  EXPECT_EQ(report.switch_timeline[2].rep, 1);
}

TEST(Report, OfflineParseReproducesInlineReportBytes) {
  const RunTrace trace = make_trace();

  std::ostringstream serialized;
  write_chrome_trace(serialized, trace, "unit");
  const auto parsed = common::parse_json(serialized.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;

  RunData offline;
  std::string error;
  ASSERT_TRUE(parse_chrome_trace(parsed.value, "unit", &offline, &error)) << error;

  const AnalysisReport inline_report =
      analyze_with_zoo(extract_run_data(trace, "unit"));
  const AnalysisReport offline_report = analyze_with_zoo(offline);

  std::ostringstream inline_json;
  std::ostringstream offline_json;
  write_report_json(inline_json, {inline_report});
  write_report_json(offline_json, {offline_report});
  EXPECT_EQ(inline_json.str(), offline_json.str());
  EXPECT_NE(inline_json.str().find("\"attribution\""), std::string::npos);
}

TEST(Report, ReportJsonIsDeterministicAndValid) {
  const RunTrace trace = make_trace();
  const AnalysisReport report =
      analyze_with_zoo(extract_run_data(trace, "unit"));

  std::ostringstream first;
  std::ostringstream second;
  write_report_json(first, {report});
  write_report_json(second, {report});
  EXPECT_EQ(first.str(), second.str());

  const auto parsed = common::parse_json(first.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const common::JsonValue* runs = parsed.value.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->as_array().size(), 1u);
  const common::JsonValue& run = runs->as_array()[0];
  EXPECT_EQ(run.string_or("label", ""), "unit");
  const common::JsonValue* attribution = run.find("attribution");
  ASSERT_NE(attribution, nullptr);
  EXPECT_DOUBLE_EQ(attribution->number_or("violations", -1.0), 10.0);
  const common::JsonValue* causes = attribution->find("causes");
  ASSERT_NE(causes, nullptr);
  double cause_sum = 0.0;
  for (const auto& member : causes->as_object()) {
    cause_sum += member.second.as_number();
  }
  EXPECT_DOUBLE_EQ(cause_sum, attribution->number_or("violations", -1.0));
}

/// A hand-built trace of instants; each entry is (rep, name, t_ms).
struct Instant {
  int rep;
  const char* name;
  double t_ms;
};

bool parse_instants(const std::vector<Instant>& instants, std::string* error) {
  constexpr int kPidsPerRep = 1 + hw::kNodeTypeCount;  // chrome_trace layout
  std::string text = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < instants.size(); ++i) {
    if (i > 0) text += ",";
    text += "{\"ph\":\"i\",\"pid\":" + std::to_string(instants[i].rep * kPidsPerRep) +
            ",\"tid\":0,\"ts\":" + std::to_string(instants[i].t_ms * 1000.0) +
            ",\"s\":\"p\",\"name\":\"" + instants[i].name +
            "\",\"args\":{\"value\":0,\"node\":\"g3s.xlarge\"}}";
  }
  text += "],\"metadata\":{\"reps\":2}}";
  const auto parsed = common::parse_json(text);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  RunData data;
  return parse_chrome_trace(parsed.value, "unit", &data, error);
}

TEST(Report, OfflineParseAcceptsTimeOrderedBlackoutsWithTies) {
  std::string error;
  EXPECT_TRUE(parse_instants({{0, "switch_begin", 1000.0},
                              {0, "node_failure", 1000.0},
                              {1, "switch_begin", 200.0},  // reps are independent
                              {0, "switch_active", 1500.0},
                              {0, "node_recovered", 900.0},  // not a blackout instant
                              {0, "switch_begin", 1500.0},
                              {1, "switch_active", 300.0}},
                             &error))
      << error;
}

// Blackout overlap is only defined for windows that open and close in time
// order, so a trace that breaks it must fail loudly instead of silently
// shifting violations into or out of hardware_switch.
TEST(Report, OfflineParseRejectsBlackoutsGoingBackInTime) {
  std::string error;
  EXPECT_FALSE(parse_instants({{0, "switch_begin", 5000.0},
                               {0, "switch_active", 6000.0},
                               {0, "switch_begin", 4000.0}},
                              &error));
  EXPECT_NE(error.find("rep 0: switch_begin at 4000 ms"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(parse_instants({{0, "switch_begin", 100.0},
                               {1, "node_failure", 5000.0},
                               {1, "switch_active", 4999.0}},
                              &error));
  EXPECT_NE(error.find("rep 1: switch_active at 4999 ms"), std::string::npos) << error;
}

TEST(Report, RenderTextMentionsEverySection) {
  const RunTrace trace = make_trace();
  const AnalysisReport report =
      analyze_with_zoo(extract_run_data(trace, "unit"));
  std::ostringstream out;
  render_report_text(out, {report});
  const std::string text = out.str();
  EXPECT_NE(text.find("unit"), std::string::npos);
  EXPECT_NE(text.find("mps_interference"), std::string::npos);
  EXPECT_NE(text.find("switch_begin"), std::string::npos);
  EXPECT_NE(text.find("Calibration"), std::string::npos);
}

}  // namespace
}  // namespace paldia::obs
