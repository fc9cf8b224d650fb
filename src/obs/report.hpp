// Offline/inline analysis of exported observability data: SLO-violation
// attribution breakdown, analytical-model calibration, per-node occupancy,
// and the hardware-switch timeline — one AnalysisReport per (scenario,
// scheme) run, rendered as a human-readable text report and/or JSON.
//
// Two producers, one consumer:
//   - extract_run_data(RunTrace)  — inline, at the end of a run (the
//     bench drivers' --report-out flag);
//   - parse_chrome_trace(json)    — offline, from an exported trace file
//     (the `paldia-analyze` tool).
// Both produce the same RunData and share analyze(), so the offline report
// reproduces the inline numbers exactly. To make that parity *byte*-exact,
// the inline extractor passes every value through quantize_timestamp /
// quantize_number (src/obs/text_format.hpp), each of which returns exactly
// the double a reader parses from the exporter's text for that value
// (pinned by the Quantize suite in tests/obs/report_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/json.hpp"
#include "src/common/units.hpp"
#include "src/obs/attribution.hpp"
#include "src/obs/calibration.hpp"
#include "src/obs/sketch.hpp"
#include "src/obs/tracer.hpp"
#include "src/telemetry/slo_tracker.hpp"

namespace paldia::obs {

/// Everything analyze() needs about one repetition, in exporter-quantized
/// form (see header comment).
struct RepData {
  std::vector<LifecycleSample> requests;  // retried/blackout flags unset
  std::unordered_set<std::int64_t> retried;
  BlackoutWindows blackouts;
  /// Monitor ticks that carried a candidate sweep (observation fields are
  /// filled by analyze() from `batches`).
  std::vector<CalibrationInterval> ticks;
  struct BatchObs {
    int node = -1;
    TimeMs submit_ms = 0.0;
    TimeMs end_ms = 0.0;    // submit + e2e, both exporter-quantized
    TimeMs start_ms = 0.0;  // device execution start
    DurationMs dur_ms = 0.0;
  };
  std::vector<BatchObs> batches;
  std::map<int, std::uint64_t> unserved;  // model -> drain-cap leftovers
  /// (model, node) -> lifecycles the sampler dropped from the trace. The
  /// tracer exports these as cumulative "sampled_out:<model>:<node>"
  /// counters so attribution totals stay exact under --sample-rate > 1.
  std::map<std::pair<int, int>, std::uint64_t> sampled_out;
  struct SwitchEvent {
    TimeMs t_ms = 0.0;
    std::string event;  // switch_begin / switch_active / node_failure / ...
    std::string node;
  };
  std::vector<SwitchEvent> switches;
};

struct RunData {
  std::string label;
  int reps_declared = 0;  // slot count (file metadata / RunTrace size)
  std::uint64_t dropped_events = 0;
  std::uint64_t dropped_decisions = 0;
  std::vector<RepData> reps;
};

/// Attribution cell for one model or node (or the run total).
struct ReportBucket {
  std::string label;
  int index = -1;  // model/node index; -1 for the total
  std::uint64_t completed = 0;
  std::uint64_t violations = 0;
  telemetry::ViolationCauseCounts causes{};
  QuantileSketch latency;
};

struct NodeUsage {
  int node = -1;
  std::string label;
  std::uint64_t batches = 0;
  DurationMs busy_ms = 0.0;
  /// Lane-busy time over summed rep spans; > 1 means lanes ran in parallel.
  double occupancy = 0.0;
};

struct TimelineEntry {
  int rep = 0;
  TimeMs t_ms = 0.0;
  std::string event;
  std::string node;
};

/// One row of the simulator self-profile (--profile): wall-clock totals for
/// a hot-path phase, merged across repetitions. Wall-clock values are
/// nondeterministic by nature, so this section never participates in the
/// byte-identity contract — it is emitted only when non-empty.
struct PhaseProfile {
  std::string phase;
  std::uint64_t calls = 0;
  double total_ms = 0.0;
  double mean_us = 0.0;
  double max_us = 0.0;
};

/// One incident row of the "health" section, in exporter-quantized textual
/// form — built inline from a HealthEngine's AlertRecords or parsed back
/// from an AlertWriter JSONL stream, so both producers are byte-identical.
struct HealthAlert {
  int rep = 0;
  std::string detector;  // health_detector_name
  std::string model;     // "" = cluster-wide
  std::string node;
  TimeMs open_ms = 0.0;
  TimeMs fire_ms = 0.0;
  TimeMs resolve_ms = 0.0;
  bool resolved_at_end = false;
  double peak_severity = 0.0;
  std::uint64_t ticks_breached = 0;
  std::string blame;  // violation_cause_name
  std::uint64_t violations = 0;  // ground truth over [open, resolve]
  std::uint64_t completed = 0;
};

/// "health" report section: the incident timeline plus detection quality
/// against the engine's ground truth. Emitted only when a health engine ran
/// (enabled), so non-health reports keep byte identity.
struct HealthReport {
  bool enabled = false;
  std::vector<HealthAlert> alerts;  // rep order, then resolution order
  std::uint64_t completed = 0;      // summed across repetitions
  std::uint64_t violations = 0;
  std::uint64_t evaluations = 0;
  double first_violation_ms = -1.0;  // min across reps; -1 = compliant run
  double first_fire_ms = -1.0;       // earliest alert fire; -1 = no alerts
  /// Mean-time-to-detect proxy: first_fire_ms - first_violation_ms, or -1
  /// when either side is undefined.
  double mttd_ms = -1.0;
  std::uint64_t false_positives = 0;  // alerts with zero in-window violations
  double false_positive_rate = 0.0;   // false_positives / alerts (0 if none)
};

struct AnalysisReport {
  std::string label;
  int reps = 0;
  std::uint64_t dropped_events = 0;
  std::uint64_t dropped_decisions = 0;

  ReportBucket total;                    // completed includes unserved
  std::uint64_t unserved = 0;
  /// Lifecycles dropped by trace sampling; already added back into the
  /// completed counts above (latency sketches cover kept samples only).
  std::uint64_t sampled_out = 0;
  double compliance = 1.0;               // 1 - violations / completed
  std::vector<ReportBucket> per_model;   // model index ascending, non-empty
  std::vector<ReportBucket> per_node;    // node index ascending, non-empty

  CalibrationSummary calibration;
  std::vector<NodeUsage> node_usage;     // node index ascending, non-empty
  std::vector<TimelineEntry> switch_timeline;  // rep order, then time order
  std::vector<PhaseProfile> profile;     // --profile only; else empty
  HealthReport health;                   // --alerts-out only; else disabled
};

/// Inline producer: quantized RunData straight from the tracer slots
/// (iterated in repetition order — identical bytes for any thread count).
RunData extract_run_data(const RunTrace& trace, const std::string& label);

/// Offline producer: RunData from a parsed Chrome-trace JSON document
/// (write_chrome_trace output). Returns false and sets `error` when the
/// document is not a trace export, or when a repetition's blackout instants
/// (switch_begin, node_failure, switch_active) go back in time: blackout
/// overlap is only defined for time-ordered windows (BlackoutWindows).
bool parse_chrome_trace(const common::JsonValue& root, const std::string& label,
                        RunData* out, std::string* error);

/// Shared consumer. `slo_by_model[m]` gates violations; `slo_ms` is the
/// calibration guarantee threshold and `rate_horizon_ms` the EWMA forecast
/// horizon (framework defaults: min model SLO, 7 s).
AnalysisReport analyze(const RunData& data,
                       const std::array<DurationMs, models::kModelCount>& slo_by_model,
                       DurationMs slo_ms, DurationMs rate_horizon_ms);

/// analyze() with the model zoo's SLOs and framework-default horizon.
AnalysisReport analyze_with_zoo(const RunData& data);

/// Merge the RunTrace's per-repetition Profilers into report rows, in
/// ProfilePhase order, skipping phases that never ran. Empty when --profile
/// was off (no profiler slots) or nothing was recorded.
std::vector<PhaseProfile> summarize_profile(const RunTrace& trace);

/// Inline producer for the "health" section: quantized incident rows and
/// ground truth straight from the RunTrace's HealthEngine slots (repetition
/// order). enabled stays false when no health engines ran.
HealthReport summarize_health(const RunTrace& trace);

/// Alert-stream consumer (`paldia-analyze --alerts`): rebuild per-run
/// AnalysisReports from an AlertWriter JSONL stream (rows group by their
/// "run" label in first-appearance order). Only the "health" section is
/// recoverable; it matches the inline section byte for byte. Returns false
/// and sets `error` on malformed input.
bool analyze_alert_stream(const std::string& text,
                          std::vector<AnalysisReport>* out,
                          std::string* error);

/// Rollup-only consumer: rebuild per-run AnalysisReports from a rollup
/// JSONL stream (RollupWriter output) without any full trace. Rows group by
/// their "run" label in first-appearance order. Only the attribution
/// sections are recoverable — compliance, violation/cause counts, and
/// latency sketches (rebuilt exactly from each row's sparse histogram);
/// calibration / node usage / switch timeline need the full trace and stay
/// empty. Returns false and sets `error` on malformed input.
bool analyze_rollup_stream(const std::string& text,
                           std::vector<AnalysisReport>* out,
                           std::string* error);

/// Human-readable multi-section report (tables + timeline).
void render_report_text(std::ostream& out, const std::vector<AnalysisReport>& runs);

/// Machine-readable report: {"runs":[...]} with a fixed key order, numbers
/// formatted with "%.10g" — byte-identical for identical report structs.
void write_report_json(std::ostream& out, const std::vector<AnalysisReport>& runs);
bool write_report_json_file(const std::string& path,
                            const std::vector<AnalysisReport>& runs,
                            std::string* error);

}  // namespace paldia::obs
