// Unit tests for the analysis layer behind --report-out / paldia-analyze:
// the exporter-quantization helpers, the inline-vs-offline producer parity
// (extract_run_data over a RunTrace must equal parse_chrome_trace over its
// serialized form, down to the report JSON bytes), and analyze()'s
// cause-sum / unserved accounting.
#include "src/obs/report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/obs/text_format.hpp"
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

// The reference side of the quantizer contract: print with snprintf, parse
// with strtod (into a buffer that holds any double's "%.3f").
std::string printf_timestamp_us(double ms) {
  char buf[400];
  std::snprintf(buf, sizeof(buf), "%.3f", std::isfinite(ms) ? ms * 1000.0 : 0.0);
  return buf;
}

std::string printf_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

double round_trip_timestamp(double ms) {
  return std::strtod(printf_timestamp_us(ms).c_str(), nullptr) / 1000.0;
}

double round_trip_number(double value) {
  if (!std::isfinite(value)) return 0.0;
  return std::strtod(printf_number(value).c_str(), nullptr);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

/// The whole contract for one input: the writers print exactly what printf
/// prints, and each quantizer returns, bit for bit, both the parse of the
/// writer's text and the old snprintf/strtod round trip.
::testing::AssertionResult matches_text(double x) {
  const auto hex = [x] {
    char text[64];
    std::snprintf(text, sizeof(text), "%a (%.17g)", x, x);
    return std::string(text);
  };
  const std::string us_text = format_timestamp_us(x);
  if (us_text != printf_timestamp_us(x)) {
    return ::testing::AssertionFailure()
           << "format_timestamp_us(" << hex() << ") = " << us_text << ", printf "
           << printf_timestamp_us(x);
  }
  const std::string number_text = format_number(x);
  if (number_text != printf_number(x)) {
    return ::testing::AssertionFailure() << "format_number(" << hex() << ") = "
                                         << number_text << ", printf "
                                         << printf_number(x);
  }
  const double ts = quantize_timestamp(x);
  if (!same_bits(ts, std::strtod(us_text.c_str(), nullptr) / 1000.0) ||
      !same_bits(ts, round_trip_timestamp(x))) {
    return ::testing::AssertionFailure()
           << "quantize_timestamp(" << hex() << ") = " << ts << ", text "
           << round_trip_timestamp(x);
  }
  const double number = quantize_number(x);
  if (!same_bits(number, std::strtod(number_text.c_str(), nullptr)) ||
      !same_bits(number, round_trip_number(x))) {
    return ::testing::AssertionFailure()
           << "quantize_number(" << hex() << ") = " << number << ", text "
           << round_trip_number(x);
  }
  return ::testing::AssertionSuccess();
}

TEST(Quantize, MatchesTextRoundTripOnSeededDoubles) {
  // Log-uniform over 1e-16..1e13 ms, both signs: inside and outside both
  // closed-form ranges (|us| < 2^52 / 1000, 1e-13 <= |x| < 1e10).
  std::mt19937_64 rng(20240514);
  std::uniform_real_distribution<double> exponent(-16.0, 13.0);
  for (int i = 0; i < 1'000'000; ++i) {
    const double x = std::pow(10.0, exponent(rng)) * ((rng() & 1) != 0 ? -1.0 : 1.0);
    ASSERT_TRUE(matches_text(x));
  }
}

TEST(Quantize, MatchesTextRoundTripOnSpecialValues) {
  using limits = std::numeric_limits<double>;
  for (const double x :
       {0.0, -0.0, limits::denorm_min(), -limits::denorm_min(),
        limits::min() / 3.0, -limits::min() / 3.0, limits::min(), -limits::min(),
        limits::epsilon(), limits::max(), limits::lowest(), limits::quiet_NaN(),
        -limits::quiet_NaN(), limits::infinity(), -limits::infinity(), 1e-300,
        -4e-4, 4e-7, -4e-7, 5e-7, -5e-7, 1e300}) {
    EXPECT_TRUE(matches_text(x));
  }
  // A negative value that prints as zero keeps its sign, as strtod does.
  EXPECT_TRUE(std::signbit(quantize_timestamp(-1e-9)));
  EXPECT_TRUE(std::signbit(quantize_number(-0.0)));
}

TEST(Quantize, ExactTiesRoundToEven) {
  std::mt19937_64 rng(7);
  // "%.3f" ties: odd multiples of 1/16 us, whose ns value ends in .5.
  int timestamp_ties = 0;
  for (int i = 0; i < 20'000; ++i) {
    const auto odd = static_cast<double>(2 * (rng() % 100'000'000) + 1);
    const double us = odd / 16.0 * ((i & 1) != 0 ? -1.0 : 1.0);
    // Inputs in ms around us / 1000 whose product ms * 1000 is the tie.
    double ms = std::nextafter(std::nextafter(us / 1000.0, 0.0), 0.0);
    for (int k = 0; k < 5; ++k, ms = std::nextafter(ms, 2.0 * us)) {
      if (ms * 1000.0 != us) continue;
      ++timestamp_ties;
      ASSERT_TRUE(matches_text(ms));
    }
  }
  EXPECT_GT(timestamp_ties, 10'000);
  // "%.10g" ties: odd multiples of 2^-(s+1) in [10^(9-s), 10^(10-s)) print
  // their tenth significant digit followed by an exact 5 (s = 0: k + 0.5).
  for (int s = 0; s <= 13; ++s) {
    const double step = std::ldexp(1.0, -(s + 1));
    const double lo = std::pow(10.0, 9 - s);
    std::uniform_real_distribution<double> in_range(lo, 10.0 * lo);
    for (int i = 0; i < 2'000; ++i) {
      double x = std::floor(in_range(rng) / (2.0 * step)) * 2.0 * step + step;
      if (x < lo || x >= 10.0 * lo) continue;
      if ((i & 1) != 0) x = -x;
      ASSERT_TRUE(matches_text(x));
    }
  }
}

TEST(Quantize, MatchesTextRoundTripAtPowersOfTenAndCutoffs) {
  std::vector<double> inputs;
  for (int e = -17; e <= 14; ++e) {
    char text[16];
    std::snprintf(text, sizeof(text), "1e%d", e);
    inputs.push_back(std::strtod(text, nullptr));
  }
  // The closed-form range edges: |us| = 2^52 / 1000 for timestamps (here in
  // ms; 1e-13 and 1e10 for numbers are among the powers of ten), and the
  // rounding carries into the next decade below 1e10 and 1e9.
  inputs.push_back(4503599627370496.0 / 1e6);
  inputs.push_back(9999999999.5);
  inputs.push_back(9999999999.499999);
  inputs.push_back(999999999.95);
  for (const double base : std::vector<double>(inputs)) {
    double below = base;
    double above = base;
    for (int step = 0; step < 4; ++step) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, std::numeric_limits<double>::max());
      inputs.push_back(below);
      inputs.push_back(above);
    }
  }
  for (const double x : inputs) {
    ASSERT_TRUE(matches_text(x));
    ASSERT_TRUE(matches_text(-x));
  }
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
