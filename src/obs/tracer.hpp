// Request-lifecycle tracing + scheduler decision log (simulated clock).
//
// One Tracer per repetition: the simulation loop is single-threaded, so the
// tracer needs no locking, and parallel repetitions each write their own
// tracer slot — the exporters (chrome_trace.hpp, export.hpp) merge slots in
// repetition order, which makes the serialized output byte-identical
// regardless of how many worker threads ran the repetitions.
//
// Three record families:
//  (a) per-request lifecycles — one event per sampled request carrying its
//      arrival, gateway hand-off, execution start and completion times,
//      tagged with model, node, batch size and the spatial/temporal split
//      the Job Distributor enacted;
//  (b) scheduler decision records — one per monitor tick: the candidate
//      sweep of Algorithm 1 (per-node best T_max, feasibility, price), the
//      winner, hysteresis counter state, and whether a reconfiguration was
//      started;
//  (c) a counter registry (cold starts, requeues, batch sizes, unserved and
//      sampled-out tallies) sampled into the event stream at the end of the
//      run, plus — with TracerConfig::timeline — gauges, per-tick counter
//      samples and framework spans, which only a Chrome trace reads.
//
// Hot-path discipline matches log.hpp: call sites hold a Tracer* that is
// nullptr when tracing is disabled, so the disabled cost is a single branch.
// Memory is bounded: events land in a fixed-capacity buffer with a drop
// counter (drop-newest keeps the retained prefix deterministic), decision
// records have their own cap.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/request.hpp"
#include "src/common/units.hpp"
#include "src/hw/node_spec.hpp"
#include "src/models/model_spec.hpp"
#include "src/obs/health.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/rollup.hpp"
#include "src/obs/sampler.hpp"

namespace paldia::obs {

struct TracerConfig {
  /// Event-buffer capacity. Every record counts 1 against it and a request
  /// lifecycle Tracer::kLifecycleUnits; events beyond it are counted, not
  /// stored.
  std::size_t event_capacity = 262'144;
  /// Decision-record capacity (one record per monitor tick; generous).
  std::size_t decision_capacity = 65'536;
  /// Lifecycle sample rate: keep every SLO-violating request plus a
  /// deterministic 1-in-sample_rate of compliant ones (1 = keep all).
  /// Sampled-out completions are tallied per (model, node) and surfaced as
  /// "sampled_out:<model>:<node>" counters so report counts stay exact.
  std::uint32_t sample_rate = 1;
  /// Seed for the sampler's request-id hash (see obs/sampler.hpp).
  std::uint64_t sampler_seed = kDefaultSamplerSeed;
  /// Keep the records only a Chrome trace reads: the framework's gauge
  /// sweep, per-tick counter samples and monitor_tick spans. The report,
  /// decision log and the other streams read none of them, so only a run
  /// that exports a Chrome trace (--trace-out) turns this on.
  bool timeline = false;
};

struct TraceEvent {
  enum class Type : std::uint8_t {
    kRequest,    // one sampled request: arrival -> submit -> start -> end
    kBatch,      // one batch execution on a device lane
    kInstant,    // point event (hardware switches, failures, ...)
    kCounter,    // counter/gauge sample
    kSpanBegin,  // explicit nested span (framework-internal phases)
    kSpanEnd,
  };

  Type type{};
  cluster::ShareMode mode{};    // lane for kBatch / kRequest
  std::int16_t model = -1;      // models::ModelId, -1 = not applicable
  std::int16_t node = -1;       // hw::NodeType, -1 = not applicable
  std::int32_t batch_size = 0;
  std::int32_t spatial = 0;     // the Job Distributor's y split for the round
  std::int32_t temporal = 0;
  std::int64_t id = -1;         // request id (kRequest) or batch id
  /// A static string literal. Counter samples emitted by sample_counters()
  /// carry the registry key instead (it points into the tracer's registry
  /// and stays valid while the tracer lives).
  const char* name = nullptr;
  TimeMs start_ms = 0.0;        // kRequest: arrival
  TimeMs end_ms = 0.0;          // kRequest: completion
  union {
    double value = 0.0;  // counter/gauge/instant value; kBatch: lane wait
    TimeMs submit_ms;    // kRequest: gateway -> Job Distributor hand-off
  };
  TimeMs exec_start_ms = 0.0;   // kRequest: device execution start
  DurationMs solo_ms = 0.0;
  DurationMs interference_ms = 0.0;
  DurationMs cold_ms = 0.0;
};
// The event buffer is most of the tracer's memory: a request's four times
// share the record size of every other event.
static_assert(sizeof(TraceEvent) == 96);

/// One candidate of Algorithm 1's per-tick sweep.
struct CandidateEval {
  hw::NodeType node{};
  DurationMs t_max_ms = 0.0;
  bool feasible = false;
  bool is_gpu = false;
  Dollars price_per_hour = 0.0;
  int best_y = 0;
};

/// One monitor tick's hardware-selection decision.
struct DecisionRecord {
  TimeMs t_ms = 0.0;
  hw::NodeType current{};       // node serving when the tick fired
  hw::NodeType raw_choice{};    // HardwareSelection::choose winner
  hw::NodeType final_choice{};  // post-hysteresis node the policy returned
  bool switch_begun = false;    // the framework started reconfiguring
  bool has_sweep = false;       // candidate sweep populated (Paldia policy)
  bool raw_feasible = false;
  bool cpu_short_circuit = false;  // a feasible CPU node won outright
  DurationMs raw_t_max_ms = 0.0;
  DurationMs best_t_max_ms = 0.0;  // most performant feasible GPU's T_max
  DurationMs band_ms = 0.0;        // the cheapest-within-band tolerance
  int wait_ctr = 0;                // hysteresis state after the decision
  int downgrade_ctr = 0;
  int emergency_ctr = 0;
  /// Capable candidates in the sweep (SelectionSweep::pool_size);
  /// `candidates` holds one more when the choice escalated outside the pool.
  int pool_size = 0;
  /// EWMA horizon forecast and trailing observed rate at the tick, summed
  /// over workloads — the calibration layer pairs these with what actually
  /// happened in the following interval.
  double predicted_rps = 0.0;
  double observed_rps = 0.0;
  std::vector<CandidateEval> candidates;  // catalog cost-ascending order
};

class Tracer {
 public:
  explicit Tracer(TracerConfig config = {})
      : config_(config), sampler_(config.sample_rate, config.sampler_seed) {
    slo_ms_.fill(kTimeNever);
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Per-model SLOs the sampler classifies against (violators are always
  /// retained). Defaults to kTimeNever, i.e. nothing counts as violating —
  /// plain 1-in-N sampling until the framework installs the zoo's SLOs.
  void set_model_slos(const std::array<DurationMs, models::kModelCount>& slos) {
    slo_ms_ = slos;
  }

  // --- Request lifecycle ---------------------------------------------------
  /// Units of event_capacity (and of dropped_events) one lifecycle costs:
  /// the Chrome export draws it as four spans (the request and its queue,
  /// dispatch and execute phases), so caps and drop counts keep counting
  /// what a reader of the export sees.
  static constexpr std::size_t kLifecycleUnits = 4;

  /// Record one completed request as a single kRequest event. Its phases
  /// (queue: arrival->submit, dispatch: submit->start, execute: start->end)
  /// are contiguous, so their durations sum exactly to the end-to-end
  /// latency. Stored or dropped whole against the capacity cap.
  void record_request_lifecycle(std::int64_t request_id, models::ModelId model,
                                hw::NodeType node, cluster::ShareMode mode,
                                int batch_size, int spatial, int temporal,
                                TimeMs arrival_ms, TimeMs submit_ms, TimeMs start_ms,
                                TimeMs end_ms, DurationMs solo_ms,
                                DurationMs interference_ms, DurationMs cold_ms);

  /// Record one batch execution on a device lane.
  void record_batch(std::int64_t batch_id, models::ModelId model, hw::NodeType node,
                    cluster::ShareMode mode, int batch_size, TimeMs submit_ms,
                    TimeMs start_ms, TimeMs end_ms, DurationMs solo_ms,
                    DurationMs cold_ms);

  /// Point event (hardware switch milestones, failures, ...).
  void instant(const char* name, TimeMs now, hw::NodeType node, double value = 0.0);
  void instant(const char* name, TimeMs now, double value = 0.0);

  /// A failed batch sent this request back to the gateway: emits a
  /// "request_requeued" instant carrying the request id, so the offline
  /// analyzer can rebuild the retried-request set the attribution engine
  /// tracks online.
  void request_requeued(std::int64_t request_id, models::ModelId model, TimeMs now,
                        hw::NodeType node);

  // --- Explicit nested spans ----------------------------------------------
  /// Open/close a named span on the framework track. Properly nested
  /// (LIFO); an end that does not match the innermost open span is counted
  /// in unbalanced_spans() and otherwise ignored.
  void begin_span(const char* name, TimeMs now);
  void end_span(const char* name, TimeMs now);
  int open_spans() const { return static_cast<int>(span_stack_.size()); }
  std::uint64_t unbalanced_spans() const { return unbalanced_; }

  // --- Counter/gauge registry ----------------------------------------------
  /// Accumulate a named counter (no event emitted; sample_counters() dumps
  /// the totals). The registry copies the name on its first use only, so
  /// dynamic names (e.g. "unserved:<model>") are safe here, unlike gauge().
  void count(std::string_view name, double delta = 1.0);
  /// Emit one gauge sample event. model_tag tags the sample with a model
  /// (e.g. per-model queue depth); -1 = untagged.
  void gauge(const char* name, TimeMs now, double value, int model_tag = -1);
  /// Emit a kCounter event per registered counter, in name order.
  void sample_counters(TimeMs now);
  double counter_value(std::string_view name) const;
  const std::map<std::string, double, std::less<>>& counters() const {
    return counters_;
  }

  // --- Scheduler decisions -------------------------------------------------
  /// Open the decision record for the current monitor tick. Returns nullptr
  /// when the decision log is full (the tick is then counted as dropped).
  DecisionRecord* begin_decision(TimeMs now, hw::NodeType current);
  /// The record opened by begin_decision (policies enrich it mid-tick).
  DecisionRecord* current_decision() { return open_decision_; }
  /// Seal the record with the post-hysteresis choice.
  void end_decision(hw::NodeType final_choice, bool switch_begun);

  // --- Introspection / export ----------------------------------------------
  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<DecisionRecord>& decisions() const { return decisions_; }
  std::uint64_t dropped_events() const { return dropped_events_; }
  std::uint64_t dropped_decisions() const { return dropped_decisions_; }
  const TracerConfig& config() const { return config_; }
  /// Record the Chrome-only timeline (TracerConfig::timeline)?
  bool timeline() const { return config_.timeline; }
  const TraceSampler& sampler() const { return sampler_; }
  /// Compliant lifecycles the sampler dropped (not stored, not counted as
  /// dropped_events — the per-(model, node) totals live in the counter
  /// registry as "sampled_out:<model>:<node>" after sample_counters()).
  std::uint64_t sampled_out_total() const { return sampled_out_total_; }

 private:
  bool reserve(std::size_t n);
  void push(const TraceEvent& event);
  /// Sampling decision for one completed request; tallies the drop when it
  /// says no. Pure in (request_id, SLO verdict) — see obs/sampler.hpp.
  bool sample_keep(std::int64_t request_id, models::ModelId model,
                   hw::NodeType node, TimeMs arrival_ms, TimeMs end_ms);
  /// Fold the sampled-out tallies into the counter registry so the next
  /// sample_counters() emits them in sorted-key order with everything else.
  void flush_sampled_out_counters();

  TracerConfig config_;
  TraceSampler sampler_;
  std::array<DurationMs, models::kModelCount> slo_ms_{};
  std::vector<TraceEvent> events_;
  std::size_t units_ = 0;  // event_capacity used: kLifecycleUnits per request
  std::vector<DecisionRecord> decisions_;
  DecisionRecord* open_decision_ = nullptr;
  std::vector<const char*> span_stack_;
  std::map<std::string, double, std::less<>> counters_;
  std::uint64_t dropped_events_ = 0;
  std::uint64_t dropped_decisions_ = 0;
  std::uint64_t unbalanced_ = 0;
  std::array<std::uint64_t,
             static_cast<std::size_t>(models::kModelCount) * hw::kNodeTypeCount>
      sampled_out_{};
  std::uint64_t sampled_out_total_ = 0;
};

/// Per-repetition observation slots for one Runner::run call. Slots are
/// created up front (rep order) and filled concurrently; exporters read them
/// in slot order, so the serialized output is independent of thread count.
struct RunTrace {
  /// Tracer slot configuration. exp::allocate_trace_slots overwrites
  /// sample_rate from SchemeFactoryOptions so the --sample-rate flag is the
  /// single knob.
  TracerConfig config;
  /// When false, no tracer slots are allocated: a rollup- or profile-only
  /// run observes every completion in fixed memory with no event buffers.
  bool capture_events = true;
  /// Allocate one RollupAggregator per repetition (--rollup-out).
  bool collect_rollups = false;
  /// Allocate one Profiler per repetition (--profile).
  bool profile = false;
  /// Allocate one HealthEngine per repetition (--alerts-out).
  /// exp::allocate_trace_slots overwrites health_config's slo_target / burn
  /// windows from SchemeFactoryOptions so the CLI flags are the single knob.
  bool collect_health = false;
  RollupConfig rollup_config;
  HealthConfig health_config;
  std::vector<std::unique_ptr<Tracer>> reps;
  std::vector<std::unique_ptr<RollupAggregator>> rollups;
  std::vector<std::unique_ptr<Profiler>> profiles;
  std::vector<std::unique_ptr<HealthEngine>> healths;

  /// Total dropped events across repetitions.
  std::uint64_t dropped_events() const;
  /// Total dropped decision records across repetitions.
  std::uint64_t dropped_decisions() const;
  /// Total sampler-dropped compliant lifecycles across repetitions.
  std::uint64_t sampled_out() const;
};

}  // namespace paldia::obs
