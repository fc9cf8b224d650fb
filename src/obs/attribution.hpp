// Online SLO-violation attribution (Section VI diagnostics).
//
// The tracer records *what* happened to each request; this engine says *why*
// the slow ones were slow. Every completed request whose end-to-end latency
// exceeded its model's SLO is classified into exactly one root cause from
// telemetry::ViolationCause, so per-cause counts always sum to the violation
// total:
//
//   failure_retry     the request rode a batch that failed and was re-queued
//   hardware_switch   its wait overlapped a reconfiguration/outage blackout
//                     window (switch_begin -> switch_active, node_failure ->
//                     next switch_active) and waiting, not execution,
//                     dominated the latency
//   cold_start        container boot charged to the request dominated
//   mps_interference  the Eq. 1 FBR contention stretch dominated
//   batching          lane/container wait after dispatch dominated
//   gateway_queue     gateway wait + batch formation dominated
//   execution         isolated execution alone was the largest share
//   unserved          never completed before the drain cap (recorded
//                     separately via record_unserved)
//
// The classification cascade is a pure function (classify_violation) shared
// with the offline analyzer (obs/report.cpp), so `paldia-analyze` reproduces
// the online counts from the exported trace.
//
// Hot-path discipline matches the Tracer: the framework holds an
// AttributionEngine* that is nullptr when attribution is disabled, so the
// disabled cost is a single branch. One engine per repetition (the
// simulation loop is single-threaded); Runner owns it and folds the totals
// into RunMetrics.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "src/common/units.hpp"
#include "src/hw/node_spec.hpp"
#include "src/models/model_spec.hpp"
#include "src/obs/sketch.hpp"
#include "src/telemetry/slo_tracker.hpp"

namespace paldia::models {
class Zoo;
}  // namespace paldia::models

namespace paldia::obs {

class Tracer;

/// Everything the classifier needs about one completed request. The obs
/// layer uses plain ints for model/node so the offline analyzer can build
/// samples straight from parsed trace files.
struct LifecycleSample {
  std::int64_t request_id = -1;
  int model = -1;  // models::ModelId
  int node = -1;   // hw::NodeType
  TimeMs arrival_ms = 0.0;
  TimeMs submit_ms = 0.0;  // gateway -> Job Distributor handoff
  TimeMs start_ms = 0.0;   // device execution start
  TimeMs end_ms = 0.0;
  DurationMs solo_ms = 0.0;
  DurationMs interference_ms = 0.0;
  DurationMs cold_ms = 0.0;
  bool retried = false;   // a batch carrying this request previously failed
  bool blackout = false;  // [arrival, start] overlapped a blackout window
};

/// Root cause of one SLO-violating request. Pure and deterministic: retry
/// wins outright; a blackout overlap wins when waiting (gateway + lane)
/// outweighed execution-side inflation (cold + interference); otherwise the
/// dominant latency component decides, ties broken in the fixed order
/// cold > interference > batching > gateway > execution.
telemetry::ViolationCause classify_violation(const LifecycleSample& sample);

/// Switch/outage blackout windows. switch_begin and node_failure open a
/// window; switch_active closes every open window (service is restored on
/// the new node). Windows that never close extend to the end of the run.
/// Shared by the online engine and the offline analyzer so both sides agree
/// on what counts as "waited through a switch".
///
/// open() and close_all() must be called with non-decreasing `now`. Then
/// window begins and ends are both non-decreasing in opening order (the
/// open windows are always a suffix, and close_all closes that suffix at
/// once), which is what lets overlaps() binary-search. The simulator's
/// clock guarantees it; the offline parser rejects traces that break it.
class BlackoutWindows {
 public:
  void open(TimeMs now);
  void close_all(TimeMs now);
  /// Does [begin, end] intersect any window? Open windows count as
  /// extending to +infinity. O(log windows).
  bool overlaps(TimeMs begin_ms, TimeMs end_ms) const;
  std::size_t count() const { return windows_.size(); }

 private:
  struct Window {
    TimeMs begin_ms = 0.0;
    TimeMs end_ms = kTimeNever;
  };
  std::vector<Window> windows_;
};

/// Run-wide aggregation cell: completion + violation counts by cause.
struct AttributionBucket {
  std::uint64_t completed = 0;
  std::uint64_t violations = 0;
  telemetry::ViolationCauseCounts causes{};
};

class AttributionEngine {
 public:
  /// `zoo` supplies each model's SLO (snapshotted at construction).
  /// `latency_gauges` keeps the run-wide latency sketch whose quantiles
  /// sample() gauges; only a run whose tracer records the timeline
  /// (TracerConfig::timeline) calls sample(), so only it needs one.
  explicit AttributionEngine(const models::Zoo& zoo, bool latency_gauges = false);

  /// One completed request. Aggregates it and, when it violated its SLO,
  /// returns the root cause (nullopt = compliant), classified from a copy
  /// of `sample` whose retried/blackout flags come from engine state.
  std::optional<telemetry::ViolationCause> observe_request(
      const LifecycleSample& sample);

  /// A failed batch re-queued this request (its eventual completion is a
  /// retry, whatever its latency decomposition says).
  void on_requeued(std::int64_t request_id) { retried_.insert(request_id); }

  // Blackout-window notifications, mirrored by the framework next to the
  // corresponding tracer instants so online and offline agree.
  void on_switch_begin(TimeMs now) { blackouts_.open(now); }
  void on_switch_active(TimeMs now) { blackouts_.close_all(now); }
  void on_node_failure(TimeMs now) { blackouts_.open(now); }

  /// Requests still pending at the drain cap: counted as violations with
  /// cause kUnserved (no latency sample, no node).
  void record_unserved(std::uint64_t count);

  /// Monitor-tick sampling into the metrics stream: cumulative violation
  /// total, per-cause counts that moved since the last sample, and (with
  /// latency_gauges) the current p50/p95/p99 of the streaming latency sketch.
  void sample(Tracer& tracer, TimeMs now);

  // --- Aggregates ----------------------------------------------------------
  std::uint64_t completed() const { return total_.completed; }
  std::uint64_t violations() const { return total_.violations; }
  const telemetry::ViolationCauseCounts& causes() const { return total_.causes; }

 private:
  std::array<DurationMs, models::kModelCount> slo_ms_{};
  BlackoutWindows blackouts_;
  std::unordered_set<std::int64_t> retried_;
  AttributionBucket total_;
  /// With latency_gauges: every completion; sample() gauges its quantiles.
  std::optional<QuantileSketch> latency_;
  telemetry::ViolationCauseCounts window_{};  // since the last sample()
};

}  // namespace paldia::obs
