#include "src/obs/attribution.hpp"

#include <algorithm>

#include "src/models/zoo.hpp"
#include "src/obs/tracer.hpp"

namespace paldia::obs {

using telemetry::ViolationCause;

telemetry::ViolationCause classify_violation(const LifecycleSample& sample) {
  if (sample.retried) return ViolationCause::kFailureRetry;

  const DurationMs gateway = std::max(0.0, sample.submit_ms - sample.arrival_ms);
  // Cold boot happens inside the dispatch window (submit -> start), so the
  // net lane/container wait excludes it.
  const DurationMs lane =
      std::max(0.0, sample.start_ms - sample.submit_ms - sample.cold_ms);
  const DurationMs cold = std::max(0.0, sample.cold_ms);
  const DurationMs interference = std::max(0.0, sample.interference_ms);
  const DurationMs solo = std::max(0.0, sample.solo_ms);

  // A blackout explains the violation only when waiting for hardware, not
  // execution-side inflation, carried the latency.
  if (sample.blackout && gateway + lane >= cold + interference) {
    return ViolationCause::kHardwareSwitch;
  }

  struct Part {
    DurationMs value;
    ViolationCause cause;
  };
  const Part parts[] = {
      {cold, ViolationCause::kColdStart},
      {interference, ViolationCause::kMpsInterference},
      {lane, ViolationCause::kBatching},
      {gateway, ViolationCause::kGatewayQueue},
      {solo, ViolationCause::kExecution},
  };
  Part best = parts[0];
  for (const Part& part : parts) {
    if (part.value > best.value) best = part;  // strict: ties keep the order
  }
  return best.cause;
}

void BlackoutWindows::open(TimeMs now) {
  windows_.push_back(Window{now, kTimeNever});
}

void BlackoutWindows::close_all(TimeMs now) {
  for (auto it = windows_.rbegin(); it != windows_.rend(); ++it) {
    if (it->end_ms != kTimeNever) break;  // older windows are all closed
    it->end_ms = now;
  }
}

bool BlackoutWindows::overlaps(TimeMs begin_ms, TimeMs end_ms) const {
  // Ends are non-decreasing, so the windows ending before begin_ms form a
  // prefix. Every later window ends at or after begin_ms, and the first of
  // them has the earliest begin, so it alone decides. (A NaN begin_ms
  // skips every window, as the pairwise test would.)
  const auto first = std::partition_point(
      windows_.begin(), windows_.end(),
      [begin_ms](const Window& window) { return !(begin_ms <= window.end_ms); });
  return first != windows_.end() && end_ms >= first->begin_ms;
}

AttributionEngine::AttributionEngine(const models::Zoo& zoo, bool latency_gauges) {
  for (int i = 0; i < models::kModelCount; ++i) {
    slo_ms_[i] = zoo.spec(models::ModelId(i)).slo_ms;
  }
  if (latency_gauges) latency_.emplace();
}

std::optional<telemetry::ViolationCause> AttributionEngine::observe_request(
    const LifecycleSample& sample) {
  const bool model_ok = sample.model >= 0 && sample.model < models::kModelCount;
  const DurationMs latency = sample.end_ms - sample.arrival_ms;
  ++total_.completed;
  if (latency_) latency_->insert(latency);

  if (!model_ok || latency <= slo_ms_[sample.model]) return std::nullopt;

  // Only a violator is classified, so only it needs the retry and blackout
  // lookups (both const: compliant requests skipping them changes nothing).
  LifecycleSample flagged = sample;
  flagged.retried = retried_.count(sample.request_id) > 0;
  flagged.blackout = blackouts_.overlaps(sample.arrival_ms, sample.start_ms);
  const ViolationCause cause = classify_violation(flagged);
  const auto index = static_cast<std::size_t>(cause);
  ++total_.violations;
  ++total_.causes[index];
  ++window_[index];
  return cause;
}

void AttributionEngine::record_unserved(std::uint64_t count) {
  if (count == 0) return;
  const auto index = static_cast<std::size_t>(ViolationCause::kUnserved);
  total_.completed += count;
  total_.violations += count;
  total_.causes[index] += count;
  window_[index] += count;
}

namespace {
// Gauge names must be static literals (tracer stores the pointer); index
// order matches telemetry::ViolationCause.
constexpr const char* kCauseGaugeNames[telemetry::kViolationCauseCount] = {
    "violations_cold_start",     "violations_gateway_queue",
    "violations_batching",       "violations_mps_interference",
    "violations_hardware_switch", "violations_failure_retry",
    "violations_execution",      "violations_unserved",
};
}  // namespace

void AttributionEngine::sample(Tracer& tracer, TimeMs now) {
  tracer.gauge("slo_violations_total", now,
               static_cast<double>(total_.violations));
  for (int i = 0; i < telemetry::kViolationCauseCount; ++i) {
    if (window_[i] == 0) continue;  // only causes that moved this window
    tracer.gauge(kCauseGaugeNames[i], now, static_cast<double>(window_[i]));
    window_[i] = 0;
  }
  if (latency_ && !latency_->empty()) {
    const SketchSummary summary = latency_->summary();
    tracer.gauge("latency_sketch_p50_ms", now, summary.p50_ms);
    tracer.gauge("latency_sketch_p95_ms", now, summary.p95_ms);
    tracer.gauge("latency_sketch_p99_ms", now, summary.p99_ms);
  }
}

}  // namespace paldia::obs
