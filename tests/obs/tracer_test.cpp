// Unit tests for the per-repetition Tracer: span balance and nesting, the
// one-event lifecycle and its all-or-nothing reservation against the ring
// cap, the counter registry's deterministic sampling order, and the
// decision-log cap.
#include "src/obs/tracer.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.hpp"
#include "src/obs/chrome_trace.hpp"

namespace paldia::obs {
namespace {

void record_one_lifecycle(Tracer& tracer, std::int64_t id, TimeMs arrival) {
  tracer.record_request_lifecycle(
      id, models::ModelId::kResNet50, hw::NodeType::kG3s_xlarge,
      cluster::ShareMode::kSpatial, /*batch_size=*/4, /*spatial=*/3,
      /*temporal=*/1, arrival, arrival + 2.0, arrival + 5.0, arrival + 95.0,
      /*solo_ms=*/85.0, /*interference_ms=*/5.0, /*cold_ms=*/3.0);
}

TEST(TracerTest, LifecycleEmitsParentPlusThreePhasesSummingToE2e) {
  Tracer tracer;
  record_one_lifecycle(tracer, 7, 100.0);
  const auto& events = tracer.events();
  ASSERT_EQ(events.size(), 1u);

  const TraceEvent& request = events[0];
  EXPECT_EQ(request.type, TraceEvent::Type::kRequest);
  EXPECT_EQ(request.id, 7);
  EXPECT_EQ(request.model, static_cast<std::int16_t>(models::ModelId::kResNet50));
  EXPECT_EQ(request.node, static_cast<std::int16_t>(hw::NodeType::kG3s_xlarge));
  EXPECT_EQ(request.batch_size, 4);
  EXPECT_EQ(request.spatial, 3);
  EXPECT_EQ(request.temporal, 1);
  EXPECT_DOUBLE_EQ(request.start_ms, 100.0);
  EXPECT_DOUBLE_EQ(request.submit_ms, 102.0);
  EXPECT_DOUBLE_EQ(request.exec_start_ms, 105.0);
  EXPECT_DOUBLE_EQ(request.end_ms, 195.0);
  EXPECT_DOUBLE_EQ(request.solo_ms, 85.0);
  EXPECT_DOUBLE_EQ(request.interference_ms, 5.0);
  EXPECT_DOUBLE_EQ(request.cold_ms, 3.0);

  // The export writes the parent plus three contiguous phases whose
  // durations sum to the end-to-end latency.
  RunTrace trace;
  trace.reps.push_back(std::make_unique<Tracer>());
  record_one_lifecycle(*trace.reps[0], 7, 100.0);
  std::ostringstream out;
  write_chrome_trace(out, trace);
  const auto parsed = common::parse_json(out.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  std::vector<const common::JsonValue*> lifecycle;
  for (const common::JsonValue& event : parsed.value.find("traceEvents")->as_array()) {
    if (event.string_or("cat", "") == "request") lifecycle.push_back(&event);
  }
  ASSERT_EQ(lifecycle.size(), 8u);
  const auto field = [&](std::size_t i, const char* key) {
    return lifecycle[i]->string_or(key, "");
  };
  EXPECT_EQ(field(0, "ph") + field(0, "name"), "brequest");
  EXPECT_EQ(field(7, "ph") + field(7, "name"), "erequest");
  const double latency_ms =
      lifecycle[0]->find("args")->number_or("latency_ms", -1.0);
  EXPECT_DOUBLE_EQ(latency_ms, 95.0);
  double cursor_us = lifecycle[0]->number_or("ts", -1.0);
  double phase_sum_ms = 0.0;
  const char* phases[] = {"queue", "dispatch", "execute"};
  for (std::size_t p = 0; p < 3; ++p) {
    const std::size_t b = 1 + 2 * p;
    EXPECT_EQ(field(b, "ph") + field(b, "name"), std::string("b") + phases[p]);
    EXPECT_EQ(field(b + 1, "ph") + field(b + 1, "name"), std::string("e") + phases[p]);
    // Contiguous: each phase opens where the previous one closed.
    EXPECT_EQ(lifecycle[b]->number_or("ts", -1.0), cursor_us) << phases[p];
    cursor_us = lifecycle[b + 1]->number_or("ts", -1.0);
    phase_sum_ms += lifecycle[b + 1]->find("args")->number_or("dur_ms", -1.0);
  }
  EXPECT_EQ(cursor_us, lifecycle[7]->number_or("ts", -2.0));
  EXPECT_DOUBLE_EQ(phase_sum_ms, latency_ms);
}

TEST(TracerTest, RingOverflowDropsWholeLifecycles) {
  TracerConfig config;
  config.event_capacity = 10;  // room for 2 lifecycles (4 units each) + 2
  Tracer tracer(config);
  for (int i = 0; i < 5; ++i) {
    record_one_lifecycle(tracer, i, 100.0 * i);
  }
  // 2 lifecycles fit; the 3rd would need 4 units but only 2 remain, so it
  // (and every later one) is dropped whole, counting its 4 exported events.
  EXPECT_EQ(tracer.events().size(), 2u);
  EXPECT_EQ(tracer.dropped_events(), 12u);
  EXPECT_EQ(tracer.events().back().type, TraceEvent::Type::kRequest);
  EXPECT_EQ(tracer.events().back().id, 1);
  // The two units left over stay usable for single-event records.
  tracer.instant("switch_begin", 1000.0, 1.0);
  tracer.instant("switch_active", 1001.0, 1.0);
  EXPECT_EQ(tracer.events().size(), 4u);
  tracer.instant("one_too_many", 1002.0, 1.0);
  EXPECT_EQ(tracer.events().size(), 4u);
  EXPECT_EQ(tracer.dropped_events(), 13u);
}

TEST(TracerTest, SpansNestLifoAndFlagMismatches) {
  Tracer tracer;
  tracer.begin_span("outer", 10.0);
  tracer.begin_span("inner", 11.0);
  EXPECT_EQ(tracer.open_spans(), 2);
  tracer.end_span("inner", 12.0);
  tracer.end_span("outer", 13.0);
  EXPECT_EQ(tracer.open_spans(), 0);
  EXPECT_EQ(tracer.unbalanced_spans(), 0u);
  ASSERT_EQ(tracer.events().size(), 4u);
  EXPECT_EQ(tracer.events()[0].type, TraceEvent::Type::kSpanBegin);
  EXPECT_EQ(tracer.events()[3].type, TraceEvent::Type::kSpanEnd);

  // A mismatched end is counted, not applied.
  tracer.begin_span("outer", 20.0);
  tracer.end_span("not_outer", 21.0);
  EXPECT_EQ(tracer.unbalanced_spans(), 1u);
  EXPECT_EQ(tracer.open_spans(), 1);
  tracer.end_span("outer", 22.0);
  EXPECT_EQ(tracer.open_spans(), 0);

  // An end with nothing open is also unbalanced.
  tracer.end_span("ghost", 30.0);
  EXPECT_EQ(tracer.unbalanced_spans(), 2u);
}

TEST(TracerTest, CountersAccumulateAndSampleInNameOrder) {
  Tracer tracer;
  tracer.count("requeues");
  tracer.count("arrivals", 5.0);
  tracer.count("arrivals", 2.0);
  EXPECT_DOUBLE_EQ(tracer.counter_value("arrivals"), 7.0);
  EXPECT_DOUBLE_EQ(tracer.counter_value("requeues"), 1.0);
  EXPECT_DOUBLE_EQ(tracer.counter_value("never_touched"), 0.0);

  tracer.sample_counters(500.0);
  ASSERT_EQ(tracer.events().size(), 2u);
  // std::map keeps samples in lexicographic name order — deterministic
  // regardless of first-touch order.
  EXPECT_STREQ(tracer.events()[0].name, "arrivals");
  EXPECT_STREQ(tracer.events()[1].name, "requeues");
  EXPECT_DOUBLE_EQ(tracer.events()[0].value, 7.0);
  EXPECT_DOUBLE_EQ(tracer.events()[0].start_ms, 500.0);
}

TEST(TracerTest, GaugeCarriesModelTag) {
  Tracer tracer;
  tracer.gauge("queue_depth", 100.0, 12.0, /*model_tag=*/3);
  ASSERT_EQ(tracer.events().size(), 1u);
  EXPECT_EQ(tracer.events()[0].type, TraceEvent::Type::kCounter);
  EXPECT_EQ(tracer.events()[0].model, 3);
  EXPECT_DOUBLE_EQ(tracer.events()[0].value, 12.0);
}

TEST(TracerTest, DecisionLogCapCountsDrops) {
  TracerConfig config;
  config.decision_capacity = 2;
  Tracer tracer(config);

  DecisionRecord* first = tracer.begin_decision(100.0, hw::NodeType::kC6i_2xlarge);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(tracer.current_decision(), first);
  first->raw_choice = hw::NodeType::kG3s_xlarge;
  tracer.end_decision(hw::NodeType::kG3s_xlarge, /*switch_begun=*/true);

  DecisionRecord* second = tracer.begin_decision(200.0, hw::NodeType::kG3s_xlarge);
  ASSERT_NE(second, nullptr);
  tracer.end_decision(hw::NodeType::kG3s_xlarge, false);

  // Cap reached: the third tick is dropped and current_decision is null, so
  // policies skip enrichment; end_decision must be a safe no-op.
  EXPECT_EQ(tracer.begin_decision(300.0, hw::NodeType::kG3s_xlarge), nullptr);
  EXPECT_EQ(tracer.current_decision(), nullptr);
  tracer.end_decision(hw::NodeType::kP3_2xlarge, false);

  ASSERT_EQ(tracer.decisions().size(), 2u);
  EXPECT_EQ(tracer.dropped_decisions(), 1u);
  EXPECT_EQ(tracer.decisions()[0].final_choice, hw::NodeType::kG3s_xlarge);
  EXPECT_TRUE(tracer.decisions()[0].switch_begun);
  EXPECT_FALSE(tracer.decisions()[1].switch_begun);
}

TEST(TracerTest, EndDecisionWithoutBeginIsNoOp) {
  Tracer tracer;
  tracer.end_decision(hw::NodeType::kC6i_2xlarge, false);
  EXPECT_TRUE(tracer.decisions().empty());
}

TEST(TracerTest, RunTraceAggregatesDrops) {
  RunTrace trace;
  trace.config.event_capacity = 4;  // one lifecycle per tracer
  trace.reps.push_back(std::make_unique<Tracer>(trace.config));
  trace.reps.push_back(std::make_unique<Tracer>(trace.config));
  record_one_lifecycle(*trace.reps[0], 1, 0.0);
  record_one_lifecycle(*trace.reps[0], 2, 100.0);  // dropped: buffer full
  record_one_lifecycle(*trace.reps[1], 3, 0.0);
  EXPECT_EQ(trace.dropped_events(), 4u);
  EXPECT_EQ(trace.reps[0]->events().size(), 1u);
  EXPECT_EQ(trace.reps[1]->events().size(), 1u);
}

}  // namespace
}  // namespace paldia::obs
