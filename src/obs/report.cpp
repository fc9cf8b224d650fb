#include "src/obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <unordered_map>

#include "src/common/table.hpp"
#include "src/common/thread_pool.hpp"
#include "src/hw/node_spec.hpp"
#include "src/models/model_spec.hpp"
#include "src/models/zoo.hpp"
#include "src/obs/text_format.hpp"

namespace paldia::obs {
namespace {

using telemetry::ViolationCause;

constexpr int kPidsPerRep = 1 + hw::kNodeTypeCount;  // chrome_trace layout
constexpr std::string_view kUnservedPrefix = "unserved:";
constexpr std::string_view kSampledOutPrefix = "sampled_out:";

int model_index(std::string_view name) {
  for (int i = 0; i < models::kModelCount; ++i) {
    if (models::model_id_name(models::ModelId(i)) == name) return i;
  }
  return -1;
}

int node_index(std::string_view name) {
  for (int i = 0; i < hw::kNodeTypeCount; ++i) {
    if (hw::node_type_name(hw::NodeType(i)) == name) return i;
  }
  return -1;
}

bool is_blackout_open(std::string_view name) {
  return name == "switch_begin" || name == "node_failure";
}

bool is_timeline_event(std::string_view name) {
  return name == "switch_begin" || name == "switch_active" ||
         name == "node_failure" || name == "node_recovered";
}

/// One repetition's ingestion state, shared verbatim between the inline
/// (RunTrace) and offline (parsed file) producers so both yield identical
/// RepData for the same underlying run.
class RepBuilder {
 public:
  explicit RepBuilder(RepData& out) : out_(out) {}

  void on_request(const LifecycleSample& sample) { out_.requests.push_back(sample); }

  void on_batch(int node, TimeMs start_ms, DurationMs dur_ms, TimeMs submit_ms,
                DurationMs e2e_ms) {
    RepData::BatchObs obs;
    obs.node = node;
    obs.start_ms = start_ms;
    obs.dur_ms = dur_ms;
    obs.submit_ms = submit_ms;
    obs.end_ms = submit_ms + e2e_ms;
    out_.batches.push_back(obs);
  }

  void on_decision(TimeMs t_ms, int node, DurationMs t_max_ms, int best_y,
                   bool feasible, double predicted_rps, double observed_rps) {
    CalibrationInterval interval;
    interval.t_ms = t_ms;
    interval.node = node;
    interval.predicted_tmax_ms = t_max_ms;
    interval.best_y = best_y;
    interval.predicted_feasible = feasible;
    interval.predicted_rps = predicted_rps;
    interval.observed_rps = observed_rps;
    out_.ticks.push_back(interval);
  }

  void on_instant(std::string_view name, TimeMs t_ms, std::string node,
                  std::int64_t id) {
    if (name == "request_requeued") {
      if (id >= 0) out_.retried.insert(id);
      return;
    }
    if (!is_timeline_event(name)) return;
    const bool opens = is_blackout_open(name);
    if (opens || name == "switch_active") {
      // BlackoutWindows needs its opens and closes in time order.
      if (t_ms < last_blackout_ms_ && disorder_.empty()) {
        disorder_ = std::string(name) + " at " + format_number(t_ms) +
                    " ms follows a blackout instant at " +
                    format_number(last_blackout_ms_) + " ms";
      }
      last_blackout_ms_ = t_ms;
      if (opens) {
        out_.blackouts.open(t_ms);
      } else {
        out_.blackouts.close_all(t_ms);
      }
    }
    RepData::SwitchEvent event;
    event.t_ms = t_ms;
    event.event = std::string(name);
    event.node = std::move(node);
    out_.switches.push_back(std::move(event));
  }

  /// Counter sample; only the last value per counter survives (counters are
  /// cumulative, so the final sample is the run total).
  void on_counter(std::string_view name, double value) {
    if (name.substr(0, kUnservedPrefix.size()) == kUnservedPrefix) {
      const int model = model_index(name.substr(kUnservedPrefix.size()));
      if (model >= 0) unserved_last_[model] = value;
      return;
    }
    if (name.substr(0, kSampledOutPrefix.size()) == kSampledOutPrefix) {
      const std::string_view rest = name.substr(kSampledOutPrefix.size());
      const std::size_t sep = rest.find(':');
      if (sep == std::string_view::npos) return;
      const int model = model_index(rest.substr(0, sep));
      const int node = node_index(rest.substr(sep + 1));
      if (model < 0 || node < 0) return;
      sampled_out_last_[{model, node}] = value;
    }
  }

  /// Empty unless a blackout instant went back in time; then it says which.
  const std::string& disorder() const { return disorder_; }

  void finish() {
    for (const auto& [model, value] : unserved_last_) {
      const auto count = static_cast<std::uint64_t>(std::llround(value));
      if (count > 0) out_.unserved[model] = count;
    }
    for (const auto& [key, value] : sampled_out_last_) {
      const auto count = static_cast<std::uint64_t>(std::llround(value));
      if (count > 0) out_.sampled_out[key] = count;
    }
  }

 private:
  RepData& out_;
  std::map<int, double> unserved_last_;
  std::map<std::pair<int, int>, double> sampled_out_last_;
  TimeMs last_blackout_ms_ = -kTimeNever;
  std::string disorder_;
};

}  // namespace

// --- Inline producer --------------------------------------------------------

RunData extract_run_data(const RunTrace& trace, const std::string& label) {
  RunData out;
  out.label = label;
  out.reps_declared = static_cast<int>(trace.reps.size());
  out.dropped_events = trace.dropped_events();
  out.dropped_decisions = trace.dropped_decisions();
  out.reps.resize(trace.reps.size());

  // Rep r reads only its own tracer and fills only out.reps[r], so the
  // result does not depend on how many CPUs run the reps.
  for_each_concurrently(trace.reps.size(), [&](std::size_t rep) {
    const Tracer* tracer = trace.reps[rep].get();
    if (tracer == nullptr) return;
    RepBuilder builder(out.reps[rep]);

    for (const TraceEvent& event : tracer->events()) {
      switch (event.type) {
        case TraceEvent::Type::kRequest: {
          // The request's "b" timestamp and args, and its phases' "e"
          // timestamps, as a reader of the Chrome export parses them.
          LifecycleSample sample;
          sample.request_id = event.id;
          sample.model = event.model;
          sample.node = event.node;
          sample.arrival_ms = quantize_timestamp(event.start_ms);
          sample.submit_ms = quantize_timestamp(event.submit_ms);
          sample.start_ms = quantize_timestamp(event.exec_start_ms);
          sample.end_ms = quantize_timestamp(event.end_ms);
          sample.solo_ms = quantize_number(event.solo_ms);
          sample.interference_ms = quantize_number(event.interference_ms);
          sample.cold_ms = quantize_number(event.cold_ms);
          builder.on_request(sample);
          break;
        }
        case TraceEvent::Type::kBatch: {
          // Mirror chrome_trace.cpp's field arithmetic exactly, then
          // quantize through the same formats a file reader sees.
          const double submit_ms = event.start_ms - event.value;
          builder.on_batch(event.node, quantize_timestamp(event.start_ms),
                           quantize_timestamp(event.end_ms - event.start_ms),
                           quantize_number(submit_ms),
                           quantize_number(event.end_ms - submit_ms));
          break;
        }
        case TraceEvent::Type::kInstant:
          builder.on_instant(
              event.name, quantize_timestamp(event.start_ms),
              event.node >= 0
                  ? std::string(hw::node_type_name(hw::NodeType(event.node)))
                  : std::string(),
              event.id);
          break;
        case TraceEvent::Type::kCounter:
          if (event.name != nullptr) {
            builder.on_counter(event.name, quantize_number(event.value));
          }
          break;
        case TraceEvent::Type::kSpanBegin:
        case TraceEvent::Type::kSpanEnd:
          break;
      }
    }

    for (const DecisionRecord& record : tracer->decisions()) {
      if (!record.has_sweep) continue;
      for (const CandidateEval& candidate : record.candidates) {
        if (candidate.node != record.final_choice) continue;
        builder.on_decision(quantize_timestamp(record.t_ms),
                            static_cast<int>(record.final_choice),
                            quantize_number(candidate.t_max_ms), candidate.best_y,
                            candidate.feasible,
                            quantize_number(record.predicted_rps),
                            quantize_number(record.observed_rps));
        break;
      }
    }
    builder.finish();
  });
  return out;
}

// --- Offline producer -------------------------------------------------------

bool parse_chrome_trace(const common::JsonValue& root, const std::string& label,
                        RunData* out, std::string* error) {
  *out = RunData{};
  out->label = label;
  const common::JsonValue* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    if (error != nullptr) *error = "no traceEvents array (not a trace export?)";
    return false;
  }
  if (const common::JsonValue* meta = root.find("metadata")) {
    out->reps_declared = static_cast<int>(meta->number_or("reps", 0));
    out->dropped_events =
        static_cast<std::uint64_t>(meta->number_or("dropped_events", 0));
    out->dropped_decisions =
        static_cast<std::uint64_t>(meta->number_or("dropped_decisions", 0));
  }
  out->reps.resize(static_cast<std::size_t>(std::max(0, out->reps_declared)));

  // Per repetition, created on demand: the shared builder, plus the export's
  // request records waiting to be paired — the request's "b" with its
  // phases' "e", keyed by request id. Events within a rep appear in
  // recording order (the exporter writes rep blocks sequentially).
  struct OfflineRep {
    explicit OfflineRep(RepData& out) : builder(out) {}
    RepBuilder builder;
    std::unordered_map<std::int64_t, LifecycleSample> pending;
  };
  std::vector<std::unique_ptr<OfflineRep>> reps;
  const auto rep_for = [&](int rep) -> OfflineRep& {
    if (static_cast<std::size_t>(rep) >= out->reps.size()) {
      out->reps.resize(static_cast<std::size_t>(rep) + 1);
    }
    if (static_cast<std::size_t>(rep) >= reps.size()) {
      reps.resize(static_cast<std::size_t>(rep) + 1);
    }
    if (reps[static_cast<std::size_t>(rep)] == nullptr) {
      reps[static_cast<std::size_t>(rep)] =
          std::make_unique<OfflineRep>(out->reps[static_cast<std::size_t>(rep)]);
    }
    return *reps[static_cast<std::size_t>(rep)];
  };

  for (const common::JsonValue& event : events->as_array()) {
    const std::string ph = event.string_or("ph", "");
    if (ph.empty() || ph == "M") continue;
    const int pid = static_cast<int>(event.number_or("pid", 0));
    const int rep = pid / kPidsPerRep;
    if (rep < 0) continue;
    const TimeMs t_ms = event.number_or("ts", 0.0) / 1000.0;
    const std::string name = event.string_or("name", "");
    const common::JsonValue* args = event.find("args");

    if (ph == "b" && name == "request") {
      if (args == nullptr) continue;
      const auto id = static_cast<std::int64_t>(event.number_or("id", -1));
      LifecycleSample& sample = rep_for(rep).pending[id];
      sample.request_id = id;
      sample.arrival_ms = t_ms;
      sample.model = model_index(args->string_or("model", ""));
      sample.node = node_index(args->string_or("node", ""));
      sample.solo_ms = args->number_or("solo_ms", 0.0);
      sample.interference_ms = args->number_or("interference_ms", 0.0);
      sample.cold_ms = args->number_or("cold_start_ms", 0.0);
    } else if (ph == "e") {
      // A phase closes at t_ms; "execute" completes the request.
      OfflineRep& state = rep_for(rep);
      const auto it =
          state.pending.find(static_cast<std::int64_t>(event.number_or("id", -1)));
      if (it == state.pending.end()) continue;  // the request's "b" is missing
      if (name == "queue") {
        it->second.submit_ms = t_ms;
      } else if (name == "dispatch") {
        it->second.start_ms = t_ms;
      } else if (name == "execute") {
        it->second.end_ms = t_ms;
        state.builder.on_request(it->second);
        state.pending.erase(it);
      }
    } else if (ph == "X") {
      // The self-profile lane (--profile) also emits "X" slices; only batch
      // slices carry batch_id, and profile timings must never reach the
      // deterministic report path.
      if (args == nullptr || args->find("batch_id") == nullptr) continue;
      rep_for(rep).builder.on_batch(pid % kPidsPerRep - 1, t_ms,
                                    event.number_or("dur", 0.0) / 1000.0,
                                    args->number_or("submit_ms", 0.0),
                                    args->number_or("e2e_ms", 0.0));
    } else if (ph == "i") {
      if (name == "hardware_selection") {
        if (args == nullptr) continue;
        const common::JsonValue* candidates = args->find("candidates");
        if (candidates == nullptr || !candidates->is_array()) continue;
        const std::string final_node = args->string_or("final", "");
        for (const common::JsonValue& candidate : candidates->as_array()) {
          if (candidate.string_or("node", "") != final_node) continue;
          rep_for(rep).builder.on_decision(
              t_ms, node_index(final_node), candidate.number_or("t_max_ms", 0.0),
              static_cast<int>(candidate.number_or("best_y", 0)),
              candidate.bool_or("feasible", false),
              args->number_or("predicted_rps", 0.0),
              args->number_or("observed_rps", 0.0));
          break;
        }
      } else {
        std::string node;
        std::int64_t id = -1;
        if (args != nullptr) {
          node = args->string_or("node", "");
          id = static_cast<std::int64_t>(args->number_or("id", -1));
        }
        rep_for(rep).builder.on_instant(name, t_ms, std::move(node), id);
      }
    } else if (ph == "C") {
      if (args != nullptr) {
        rep_for(rep).builder.on_counter(name, args->number_or("value", 0.0));
      }
    }
  }
  for (std::size_t rep = 0; rep < reps.size(); ++rep) {
    if (reps[rep] == nullptr) continue;
    RepBuilder& builder = reps[rep]->builder;
    if (!builder.disorder().empty()) {
      if (error != nullptr) {
        *error = "rep " + std::to_string(rep) + ": " + builder.disorder() +
                 "; switch_begin, node_failure and switch_active instants must "
                 "be in time order";
      }
      return false;
    }
    builder.finish();
  }
  return true;
}

// --- Shared analysis --------------------------------------------------------

AnalysisReport analyze(
    const RunData& data,
    const std::array<DurationMs, models::kModelCount>& slo_by_model,
    DurationMs slo_ms, DurationMs rate_horizon_ms) {
  AnalysisReport report;
  report.label = data.label;
  report.reps = static_cast<int>(
      std::max<std::size_t>(data.reps.size(),
                            static_cast<std::size_t>(std::max(0, data.reps_declared))));
  report.dropped_events = data.dropped_events;
  report.dropped_decisions = data.dropped_decisions;
  report.total.label = "total";

  std::array<ReportBucket, models::kModelCount> per_model;
  std::array<ReportBucket, hw::kNodeTypeCount> per_node;
  struct UsageAcc {
    std::uint64_t batches = 0;
    DurationMs busy_ms = 0.0;
  };
  std::array<UsageAcc, hw::kNodeTypeCount> usage{};
  DurationMs span_sum_ms = 0.0;
  std::vector<std::vector<CalibrationInterval>> all_ticks;
  all_ticks.reserve(data.reps.size());

  for (std::size_t rep = 0; rep < data.reps.size(); ++rep) {
    const RepData& rd = data.reps[rep];
    TimeMs span_ms = 0.0;

    for (LifecycleSample sample : rd.requests) {
      // Mirror AttributionEngine::observe_request exactly.
      const bool model_ok = sample.model >= 0 && sample.model < models::kModelCount;
      const bool node_ok = sample.node >= 0 && sample.node < hw::kNodeTypeCount;
      sample.retried = rd.retried.count(sample.request_id) > 0;
      sample.blackout = rd.blackouts.overlaps(sample.arrival_ms, sample.start_ms);
      const DurationMs latency = sample.end_ms - sample.arrival_ms;
      span_ms = std::max(span_ms, sample.end_ms);

      ++report.total.completed;
      report.total.latency.insert(latency);
      if (model_ok) {
        ++per_model[sample.model].completed;
        per_model[sample.model].latency.insert(latency);
      }
      if (node_ok) {
        ++per_node[sample.node].completed;
        per_node[sample.node].latency.insert(latency);
      }
      if (!model_ok || latency <= slo_by_model[sample.model]) continue;

      const ViolationCause cause = classify_violation(sample);
      const auto index = static_cast<std::size_t>(cause);
      ++report.total.violations;
      ++report.total.causes[index];
      ++per_model[sample.model].violations;
      ++per_model[sample.model].causes[index];
      if (node_ok) {
        ++per_node[sample.node].violations;
        ++per_node[sample.node].causes[index];
      }
    }

    for (const auto& [model, count] : rd.unserved) {
      const auto index = static_cast<std::size_t>(ViolationCause::kUnserved);
      report.total.completed += count;
      report.total.violations += count;
      report.total.causes[index] += count;
      report.unserved += count;
      if (model >= 0 && model < models::kModelCount) {
        per_model[model].completed += count;
        per_model[model].violations += count;
        per_model[model].causes[index] += count;
      }
    }

    // Sampled-out lifecycles were SLO-compliant by construction (the sampler
    // keeps every violator), so they restore completed counts only — never
    // violations. Latency sketches stay sample-only.
    for (const auto& [key, count] : rd.sampled_out) {
      const auto& [model, node] = key;
      report.total.completed += count;
      report.sampled_out += count;
      if (model >= 0 && model < models::kModelCount) {
        per_model[model].completed += count;
      }
      if (node >= 0 && node < hw::kNodeTypeCount) {
        per_node[node].completed += count;
      }
    }

    // Calibration: fold batch observations into their decision interval
    // (same arithmetic as CalibrationTracker::observe_batch).
    std::vector<CalibrationInterval> ticks = rd.ticks;
    for (const RepData::BatchObs& batch : rd.batches) {
      span_ms = std::max(span_ms, batch.start_ms + batch.dur_ms);
      if (batch.node >= 0 && batch.node < hw::kNodeTypeCount) {
        usage[batch.node].batches += 1;
        usage[batch.node].busy_ms += batch.dur_ms;
      }
      const int index = interval_containing(ticks, batch.submit_ms);
      if (index < 0) continue;
      CalibrationInterval& interval = ticks[static_cast<std::size_t>(index)];
      if (interval.node != batch.node) continue;
      interval.observed = true;
      interval.observed_max_e2e_ms = std::max(interval.observed_max_e2e_ms,
                                              batch.end_ms - batch.submit_ms);
    }
    for (const CalibrationInterval& tick : ticks) {
      span_ms = std::max(span_ms, tick.t_ms);
    }
    all_ticks.push_back(std::move(ticks));

    for (const RepData::SwitchEvent& sw : rd.switches) {
      span_ms = std::max(span_ms, sw.t_ms);
      TimelineEntry entry;
      entry.rep = static_cast<int>(rep);
      entry.t_ms = sw.t_ms;
      entry.event = sw.event;
      entry.node = sw.node;
      report.switch_timeline.push_back(std::move(entry));
    }
    span_sum_ms += span_ms;
  }

  report.compliance =
      report.total.completed > 0
          ? 1.0 - static_cast<double>(report.total.violations) /
                      static_cast<double>(report.total.completed)
          : 1.0;
  report.total.index = -1;
  report.calibration = summarize_calibration(all_ticks, slo_ms, rate_horizon_ms);

  for (int i = 0; i < models::kModelCount; ++i) {
    if (per_model[i].completed == 0) continue;
    per_model[i].index = i;
    per_model[i].label = std::string(models::model_id_name(models::ModelId(i)));
    report.per_model.push_back(std::move(per_model[i]));
  }
  for (int i = 0; i < hw::kNodeTypeCount; ++i) {
    if (per_node[i].completed == 0) continue;
    per_node[i].index = i;
    per_node[i].label = std::string(hw::node_type_name(hw::NodeType(i)));
    report.per_node.push_back(std::move(per_node[i]));
  }
  for (int i = 0; i < hw::kNodeTypeCount; ++i) {
    if (usage[i].batches == 0) continue;
    NodeUsage row;
    row.node = i;
    row.label = std::string(hw::node_type_name(hw::NodeType(i)));
    row.batches = usage[i].batches;
    row.busy_ms = usage[i].busy_ms;
    row.occupancy = span_sum_ms > 0.0 ? usage[i].busy_ms / span_sum_ms : 0.0;
    report.node_usage.push_back(std::move(row));
  }
  return report;
}

AnalysisReport analyze_with_zoo(const RunData& data) {
  const models::Zoo& zoo = models::Zoo::instance();
  std::array<DurationMs, models::kModelCount> slo_by_model{};
  DurationMs min_slo = kTimeNever;
  for (int i = 0; i < models::kModelCount; ++i) {
    slo_by_model[i] = zoo.spec(models::ModelId(i)).slo_ms;
    min_slo = std::min(min_slo, slo_by_model[i]);
  }
  const CalibrationTracker::Config defaults;
  if (!std::isfinite(min_slo)) min_slo = defaults.slo_ms;
  return analyze(data, slo_by_model, min_slo, defaults.rate_horizon_ms);
}

// --- Self-profile summary ---------------------------------------------------

std::vector<PhaseProfile> summarize_profile(const RunTrace& trace) {
  Profiler merged;
  for (const auto& profiler : trace.profiles) {
    if (profiler != nullptr) merged.merge(*profiler);
  }
  std::vector<PhaseProfile> rows;
  if (merged.empty()) return rows;
  for (int i = 0; i < kProfilePhaseCount; ++i) {
    const PhaseStats& stats = merged.phases()[static_cast<std::size_t>(i)];
    if (stats.calls == 0) continue;
    PhaseProfile row;
    row.phase = std::string(profile_phase_name(static_cast<ProfilePhase>(i)));
    row.calls = stats.calls;
    row.total_ms = static_cast<double>(stats.total_ns) / 1e6;
    row.mean_us = static_cast<double>(stats.total_ns) /
                  (1e3 * static_cast<double>(stats.calls));
    row.max_us = static_cast<double>(stats.max_ns) / 1e3;
    rows.push_back(std::move(row));
  }
  return rows;
}

// --- Health section ---------------------------------------------------------

namespace {

/// Detection-quality derivations shared by the inline and offline health
/// producers, so both compute MTTD / false-positive rate from identical
/// inputs (quantized or parsed — the same doubles either way).
void finish_health(HealthReport& health) {
  health.first_fire_ms = -1.0;
  health.false_positives = 0;
  for (const HealthAlert& alert : health.alerts) {
    if (health.first_fire_ms < 0.0 || alert.fire_ms < health.first_fire_ms) {
      health.first_fire_ms = alert.fire_ms;
    }
    if (alert.violations == 0) ++health.false_positives;
  }
  health.false_positive_rate =
      health.alerts.empty()
          ? 0.0
          : static_cast<double>(health.false_positives) /
                static_cast<double>(health.alerts.size());
  health.mttd_ms =
      health.first_fire_ms >= 0.0 && health.first_violation_ms >= 0.0
          ? health.first_fire_ms - health.first_violation_ms
          : -1.0;
}

}  // namespace

HealthReport summarize_health(const RunTrace& trace) {
  HealthReport health;
  for (std::size_t rep = 0; rep < trace.healths.size(); ++rep) {
    const HealthEngine* engine = trace.healths[rep].get();
    if (engine == nullptr) continue;
    health.enabled = true;
    health.completed += engine->completions();
    health.violations += engine->violations();
    health.evaluations += engine->evaluations();
    const double first = quantize_number(engine->first_violation_ms());
    if (first >= 0.0 &&
        (health.first_violation_ms < 0.0 || first < health.first_violation_ms)) {
      health.first_violation_ms = first;
    }
    for (const AlertRecord& record : engine->alerts()) {
      HealthAlert alert;
      alert.rep = static_cast<int>(rep);
      alert.detector = health_detector_name(record.detector);
      alert.model =
          record.model >= 0 && record.model < models::kModelCount
              ? std::string(models::model_id_name(models::ModelId(record.model)))
              : std::string();
      alert.node = record.node >= 0 && record.node < hw::kNodeTypeCount
                       ? std::string(hw::node_type_name(hw::NodeType(record.node)))
                       : std::string();
      alert.open_ms = quantize_number(record.open_ms);
      alert.fire_ms = quantize_number(record.fire_ms);
      alert.resolve_ms = quantize_number(record.resolve_ms);
      alert.resolved_at_end = record.resolved_at_end;
      alert.peak_severity = quantize_number(record.peak_severity);
      alert.ticks_breached = record.ticks_breached;
      alert.blame = telemetry::violation_cause_name(record.blame);
      alert.violations = record.violations;
      alert.completed = record.completed;
      health.alerts.push_back(std::move(alert));
    }
  }
  finish_health(health);
  return health;
}

bool analyze_alert_stream(const std::string& text,
                          std::vector<AnalysisReport>* out,
                          std::string* error) {
  out->clear();
  const common::JsonLinesResult parsed = common::parse_json_lines(text);
  if (!parsed.ok) {
    if (error != nullptr) *error = parsed.error;
    return false;
  }

  struct RunAcc {
    AnalysisReport report;
    int max_rep = -1;
  };
  std::vector<RunAcc> runs;
  std::unordered_map<std::string, std::size_t> run_index;

  for (const common::JsonValue& row : parsed.rows) {
    if (!row.is_object()) {
      if (error != nullptr) *error = "alert row is not an object";
      return false;
    }
    const std::string label = row.string_or("run", "");
    auto [it, inserted] = run_index.emplace(label, runs.size());
    if (inserted) {
      runs.emplace_back();
      runs.back().report.label = label;
      runs.back().report.total.label = "total";
      runs.back().report.health.enabled = true;
    }
    RunAcc& acc = runs[it->second];
    HealthReport& health = acc.report.health;
    const int rep = static_cast<int>(row.number_or("rep", 0.0));
    acc.max_rep = std::max(acc.max_rep, rep);

    const std::string kind = row.string_or("row", "");
    if (kind == "alert") {
      HealthAlert alert;
      alert.rep = rep;
      alert.detector = row.string_or("detector", "");
      alert.model = row.string_or("model", "");
      alert.node = row.string_or("node", "");
      alert.open_ms = row.number_or("open_ms", 0.0);
      alert.fire_ms = row.number_or("fire_ms", 0.0);
      alert.resolve_ms = row.number_or("resolve_ms", 0.0);
      alert.resolved_at_end = row.bool_or("resolved_at_end", false);
      alert.peak_severity = row.number_or("peak_severity", 0.0);
      alert.ticks_breached =
          static_cast<std::uint64_t>(row.number_or("ticks_breached", 0.0));
      alert.blame = row.string_or("blame", "");
      alert.violations =
          static_cast<std::uint64_t>(row.number_or("violations", 0.0));
      alert.completed =
          static_cast<std::uint64_t>(row.number_or("completed", 0.0));
      health.alerts.push_back(std::move(alert));
    } else if (kind == "summary") {
      health.completed +=
          static_cast<std::uint64_t>(row.number_or("completed", 0.0));
      health.violations +=
          static_cast<std::uint64_t>(row.number_or("violations", 0.0));
      health.evaluations +=
          static_cast<std::uint64_t>(row.number_or("evaluations", 0.0));
      const double first = row.number_or("first_violation_ms", -1.0);
      if (first >= 0.0 && (health.first_violation_ms < 0.0 ||
                           first < health.first_violation_ms)) {
        health.first_violation_ms = first;
      }
    } else {
      if (error != nullptr) {
        *error = "alert row kind '" + kind + "' is neither alert nor summary";
      }
      return false;
    }
  }

  for (RunAcc& acc : runs) {
    acc.report.reps = acc.max_rep + 1;
    acc.report.total.index = -1;
    finish_health(acc.report.health);
    out->push_back(std::move(acc.report));
  }
  return true;
}

// --- Rollup-only consumer ---------------------------------------------------

bool analyze_rollup_stream(const std::string& text,
                           std::vector<AnalysisReport>* out,
                           std::string* error) {
  out->clear();
  const common::JsonLinesResult parsed = common::parse_json_lines(text);
  if (!parsed.ok) {
    if (error != nullptr) *error = parsed.error;
    return false;
  }

  // Per-run accumulation in first-appearance order; dense per-model /
  // per-node arrays compact into the report at the end, like analyze().
  struct RunAcc {
    AnalysisReport report;
    std::array<ReportBucket, models::kModelCount> per_model{};
    std::array<ReportBucket, hw::kNodeTypeCount> per_node{};
    int max_rep = -1;
  };
  std::vector<RunAcc> runs;
  std::unordered_map<std::string, std::size_t> run_index;

  for (const common::JsonValue& row : parsed.rows) {
    if (!row.is_object()) {
      if (error != nullptr) *error = "rollup row is not an object";
      return false;
    }
    const std::string label = row.string_or("run", "");
    auto [it, inserted] = run_index.emplace(label, runs.size());
    if (inserted) {
      runs.emplace_back();
      runs.back().report.label = label;
      runs.back().report.total.label = "total";
    }
    RunAcc& acc = runs[it->second];
    acc.max_rep = std::max(acc.max_rep,
                           static_cast<int>(row.number_or("rep", 0.0)));

    const int model = model_index(row.string_or("model", ""));
    const int node = node_index(row.string_or("node", ""));
    const auto completed =
        static_cast<std::uint64_t>(row.number_or("completed", 0.0));
    const auto violations =
        static_cast<std::uint64_t>(row.number_or("violations", 0.0));
    const auto unserved =
        static_cast<std::uint64_t>(row.number_or("unserved", 0.0));

    // A completion row carries completed/violations; an unserved row (node
    // = -1) carries unserved, which counts as completed + violated with
    // cause kUnserved — both already folded into the row's causes object.
    acc.report.total.completed += completed + unserved;
    acc.report.total.violations += violations + unserved;
    acc.report.unserved += unserved;
    if (model >= 0) {
      acc.per_model[model].completed += completed + unserved;
      acc.per_model[model].violations += violations + unserved;
    }
    if (node >= 0) {
      acc.per_node[node].completed += completed;
      acc.per_node[node].violations += violations;
    }

    if (const common::JsonValue* causes = row.find("causes");
        causes != nullptr && causes->is_object()) {
      for (int i = 0; i < telemetry::kViolationCauseCount; ++i) {
        const auto count = static_cast<std::uint64_t>(causes->number_or(
            telemetry::violation_cause_name(static_cast<ViolationCause>(i)),
            0.0));
        if (count == 0) continue;
        const auto index = static_cast<std::size_t>(i);
        acc.report.total.causes[index] += count;
        if (model >= 0) acc.per_model[model].causes[index] += count;
        if (node >= 0) acc.per_node[node].causes[index] += count;
      }
    }

    // The sparse histogram round-trips the cell's QuantileSketch exactly:
    // bucket representatives map back into the bucket that produced them.
    if (const common::JsonValue* hist = row.find("hist");
        hist != nullptr && hist->is_array()) {
      for (const common::JsonValue& pair : hist->as_array()) {
        if (!pair.is_array() || pair.as_array().size() != 2) continue;
        const double value = pair.as_array()[0].as_number();
        const auto count =
            static_cast<std::uint64_t>(pair.as_array()[1].as_number());
        if (count == 0) continue;
        acc.report.total.latency.add(value, count);
        if (model >= 0) acc.per_model[model].latency.add(value, count);
        if (node >= 0) acc.per_node[node].latency.add(value, count);
      }
    }
  }

  for (RunAcc& acc : runs) {
    AnalysisReport& report = acc.report;
    report.reps = acc.max_rep + 1;
    report.total.index = -1;
    report.compliance =
        report.total.completed > 0
            ? 1.0 - static_cast<double>(report.total.violations) /
                        static_cast<double>(report.total.completed)
            : 1.0;
    for (int i = 0; i < models::kModelCount; ++i) {
      if (acc.per_model[i].completed == 0) continue;
      acc.per_model[i].index = i;
      acc.per_model[i].label =
          std::string(models::model_id_name(models::ModelId(i)));
      report.per_model.push_back(std::move(acc.per_model[i]));
    }
    for (int i = 0; i < hw::kNodeTypeCount; ++i) {
      if (acc.per_node[i].completed == 0) continue;
      acc.per_node[i].index = i;
      acc.per_node[i].label = std::string(hw::node_type_name(hw::NodeType(i)));
      report.per_node.push_back(std::move(acc.per_node[i]));
    }
    out->push_back(std::move(report));
  }
  return true;
}

// --- Text rendering ---------------------------------------------------------

namespace {

std::string top_cause(const ReportBucket& bucket) {
  if (bucket.violations == 0) return "-";
  std::size_t best = 0;
  for (std::size_t i = 1; i < bucket.causes.size(); ++i) {
    if (bucket.causes[i] > bucket.causes[best]) best = i;
  }
  return std::string(
      telemetry::violation_cause_name(static_cast<ViolationCause>(best)));
}

constexpr std::size_t kTimelineRows = 40;  // text report cap; JSON keeps all

}  // namespace

void render_report_text(std::ostream& out,
                        const std::vector<AnalysisReport>& runs) {
  for (const AnalysisReport& report : runs) {
    out << "=== " << report.label << " (" << report.reps << " rep"
        << (report.reps == 1 ? "" : "s") << ") ===\n";
    out << "requests " << report.total.completed << " | violations "
        << report.total.violations << " (" << Table::percent(report.compliance)
        << " compliant) | unserved " << report.unserved;
    if (report.sampled_out > 0) {
      out << " | sampled out " << report.sampled_out << " (counts exact)";
    }
    out << "\n";
    if (report.dropped_events > 0 || report.dropped_decisions > 0) {
      out << "WARNING: trace truncated (" << report.dropped_events
          << " events, " << report.dropped_decisions
          << " decisions dropped) — counts below undercount\n";
    }

    out << "\nViolation attribution:\n";
    {
      Table table({"cause", "count", "share"});
      for (std::size_t i = 0; i < report.total.causes.size(); ++i) {
        if (report.total.causes[i] == 0) continue;
        const double share =
            report.total.violations > 0
                ? static_cast<double>(report.total.causes[i]) /
                      static_cast<double>(report.total.violations)
                : 0.0;
        table.add_row({std::string(telemetry::violation_cause_name(
                           static_cast<ViolationCause>(i))),
                       std::to_string(report.total.causes[i]),
                       Table::percent(share)});
      }
      if (report.total.violations == 0) table.add_row({"(none)", "0", "-"});
      table.print(out);
    }

    if (!report.per_model.empty()) {
      out << "\nPer-model:\n";
      Table table({"model", "completed", "violations", "p50 ms", "p95 ms",
                   "p99 ms", "top cause"});
      for (const ReportBucket& bucket : report.per_model) {
        const SketchSummary latency = bucket.latency.summary();
        table.add_row({bucket.label, std::to_string(bucket.completed),
                       std::to_string(bucket.violations), Table::num(latency.p50_ms),
                       Table::num(latency.p95_ms), Table::num(latency.p99_ms),
                       top_cause(bucket)});
      }
      table.print(out);
    }

    if (!report.per_node.empty() || !report.node_usage.empty()) {
      out << "\nPer-node:\n";
      Table table({"node", "completed", "violations", "p99 ms", "batches",
                   "busy s", "occupancy"});
      for (const ReportBucket& bucket : report.per_node) {
        const NodeUsage* usage = nullptr;
        for (const NodeUsage& row : report.node_usage) {
          if (row.node == bucket.index) usage = &row;
        }
        table.add_row(
            {bucket.label, std::to_string(bucket.completed),
             std::to_string(bucket.violations),
             Table::num(bucket.latency.summary().p99_ms),
             usage != nullptr ? std::to_string(usage->batches) : "0",
             usage != nullptr ? Table::num(usage->busy_ms / 1000.0) : "0",
             usage != nullptr ? Table::num(usage->occupancy) : "0"});
      }
      table.print(out);
    }

    const CalibrationSummary& calibration = report.calibration;
    out << "\nCalibration: " << calibration.intervals_observed << "/"
        << calibration.intervals_total << " intervals observed | T_max MAPE "
        << Table::percent(calibration.tmax_mape) << " | SLO coverage "
        << Table::percent(calibration.tmax_coverage) << " | rate MAPE "
        << Table::percent(calibration.rate.mape) << " ("
        << calibration.rate.pairs << " pairs)\n";
    if (!calibration.per_node.empty()) {
      Table table({"node", "intervals", "MAPE", "coverage", "mean pred ms",
                   "mean obs ms"});
      for (const NodeCalibration& row : calibration.per_node) {
        table.add_row({row.node >= 0 && row.node < hw::kNodeTypeCount
                           ? std::string(hw::node_type_name(hw::NodeType(row.node)))
                           : std::to_string(row.node),
                       std::to_string(row.intervals), Table::percent(row.mape),
                       Table::percent(row.coverage),
                       Table::num(row.mean_predicted_ms),
                       Table::num(row.mean_observed_ms)});
      }
      table.print(out);
    }
    if (!calibration.per_y_split.empty()) {
      Table table({"y split", "intervals", "MAPE"});
      for (const YSplitCalibration& row : calibration.per_y_split) {
        table.add_row({std::to_string(row.best_y), std::to_string(row.intervals),
                       Table::percent(row.mape)});
      }
      table.print(out);
    }

    if (report.health.enabled) {
      const HealthReport& health = report.health;
      out << "\nSLO health: " << health.alerts.size() << " alerts ("
          << health.false_positives << " false positives, "
          << Table::percent(health.false_positive_rate) << ") | "
          << health.evaluations << " evaluations | first violation ";
      if (health.first_violation_ms >= 0.0) {
        out << "t=" << Table::num(health.first_violation_ms / 1000.0, 3) << "s";
      } else {
        out << "none";
      }
      out << " | MTTD ";
      if (health.mttd_ms >= 0.0) {
        out << Table::num(health.mttd_ms) << " ms";
      } else {
        out << "-";
      }
      out << "\n";
      if (!health.alerts.empty()) {
        Table table({"rep", "detector", "model", "node", "open s", "fire s",
                     "resolve s", "peak", "blame", "violations"});
        bool any_at_end = false;
        for (const HealthAlert& alert : health.alerts) {
          any_at_end = any_at_end || alert.resolved_at_end;
          table.add_row(
              {std::to_string(alert.rep), alert.detector,
               alert.model.empty() ? "-" : alert.model,
               alert.node.empty() ? "-" : alert.node,
               Table::num(alert.open_ms / 1000.0, 3),
               Table::num(alert.fire_ms / 1000.0, 3),
               Table::num(alert.resolve_ms / 1000.0, 3) +
                   (alert.resolved_at_end ? "*" : ""),
               Table::num(alert.peak_severity), alert.blame,
               std::to_string(alert.violations)});
        }
        table.print(out);
        if (any_at_end) out << "  * still firing at run end\n";
      }
    }

    if (!report.profile.empty()) {
      out << "\nSelf-profile (host wall clock, nondeterministic):\n";
      Table table({"phase", "calls", "total ms", "mean us", "max us"});
      for (const PhaseProfile& row : report.profile) {
        table.add_row({row.phase, std::to_string(row.calls),
                       Table::num(row.total_ms), Table::num(row.mean_us),
                       Table::num(row.max_us)});
      }
      table.print(out);
    }

    if (!report.switch_timeline.empty()) {
      out << "\nSwitch timeline (" << report.switch_timeline.size()
          << " events):\n";
      std::size_t shown = 0;
      for (const TimelineEntry& entry : report.switch_timeline) {
        if (shown++ >= kTimelineRows) {
          out << "  ... (" << report.switch_timeline.size() - kTimelineRows
              << " more in the JSON report)\n";
          break;
        }
        out << "  rep " << entry.rep << "  t=" << Table::num(entry.t_ms / 1000.0, 3)
            << "s  " << entry.event;
        if (!entry.node.empty()) out << " -> " << entry.node;
        out << "\n";
      }
    }
    out << "\n";
  }
}

// --- JSON rendering ---------------------------------------------------------

namespace {

void write_causes(std::ostream& out, const telemetry::ViolationCauseCounts& causes) {
  out << "{";
  for (int i = 0; i < telemetry::kViolationCauseCount; ++i) {
    if (i > 0) out << ",";
    out << "\"" << telemetry::violation_cause_name(static_cast<ViolationCause>(i))
        << "\":" << causes[static_cast<std::size_t>(i)];
  }
  out << "}";
}

void write_latency(std::ostream& out, const QuantileSketch& sketch) {
  const SketchSummary summary = sketch.summary();
  out << "{\"count\":" << summary.count
      << ",\"mean_ms\":" << format_number(summary.mean_ms)
      << ",\"p50_ms\":" << format_number(summary.p50_ms)
      << ",\"p95_ms\":" << format_number(summary.p95_ms)
      << ",\"p99_ms\":" << format_number(summary.p99_ms)
      << ",\"max_ms\":" << format_number(summary.max_ms) << "}";
}

void write_bucket(std::ostream& out, const char* key, const ReportBucket& bucket) {
  out << "{\"" << key << "\":\"" << json_escape(bucket.label)
      << "\",\"completed\":" << bucket.completed
      << ",\"violations\":" << bucket.violations << ",\"causes\":";
  write_causes(out, bucket.causes);
  out << ",\"latency\":";
  write_latency(out, bucket.latency);
  out << "}";
}

}  // namespace

void write_report_json(std::ostream& out, const std::vector<AnalysisReport>& runs) {
  out << "{\"runs\":[";
  bool first_run = true;
  for (const AnalysisReport& report : runs) {
    if (!first_run) out << ",\n";
    first_run = false;
    out << "{\"label\":\"" << json_escape(report.label)
        << "\",\"reps\":" << report.reps
        << ",\"meta\":{\"dropped_events\":" << report.dropped_events
        << ",\"dropped_decisions\":" << report.dropped_decisions << "}";

    out << ",\"attribution\":{\"requests\":" << report.total.completed
        << ",\"violations\":" << report.total.violations
        << ",\"unserved\":" << report.unserved
        << ",\"sampled_out\":" << report.sampled_out
        << ",\"compliance\":" << format_number(report.compliance) << ",\"causes\":";
    write_causes(out, report.total.causes);
    out << ",\"latency\":";
    write_latency(out, report.total.latency);
    out << ",\"per_model\":[";
    for (std::size_t i = 0; i < report.per_model.size(); ++i) {
      if (i > 0) out << ",";
      write_bucket(out, "model", report.per_model[i]);
    }
    out << "],\"per_node\":[";
    for (std::size_t i = 0; i < report.per_node.size(); ++i) {
      if (i > 0) out << ",";
      write_bucket(out, "node", report.per_node[i]);
    }
    out << "]}";

    const CalibrationSummary& calibration = report.calibration;
    out << ",\"calibration\":{\"intervals\":" << calibration.intervals_total
        << ",\"observed\":" << calibration.intervals_observed
        << ",\"tmax_mape\":" << format_number(calibration.tmax_mape)
        << ",\"tmax_coverage\":" << format_number(calibration.tmax_coverage)
        << ",\"per_node\":[";
    for (std::size_t i = 0; i < calibration.per_node.size(); ++i) {
      const NodeCalibration& row = calibration.per_node[i];
      if (i > 0) out << ",";
      out << "{\"node\":\""
          << json_escape(row.node >= 0 && row.node < hw::kNodeTypeCount
                             ? std::string(hw::node_type_name(hw::NodeType(row.node)))
                             : std::to_string(row.node))
          << "\",\"intervals\":" << row.intervals
          << ",\"mape\":" << format_number(row.mape)
          << ",\"feasible_intervals\":" << row.feasible_intervals
          << ",\"coverage\":" << format_number(row.coverage)
          << ",\"mean_predicted_ms\":" << format_number(row.mean_predicted_ms)
          << ",\"mean_observed_ms\":" << format_number(row.mean_observed_ms) << "}";
    }
    out << "],\"per_y_split\":[";
    for (std::size_t i = 0; i < calibration.per_y_split.size(); ++i) {
      const YSplitCalibration& row = calibration.per_y_split[i];
      if (i > 0) out << ",";
      out << "{\"best_y\":" << row.best_y << ",\"intervals\":" << row.intervals
          << ",\"mape\":" << format_number(row.mape) << "}";
    }
    out << "],\"rate\":{\"pairs\":" << calibration.rate.pairs
        << ",\"mape\":" << format_number(calibration.rate.mape)
        << ",\"mean_predicted_rps\":"
        << format_number(calibration.rate.mean_predicted_rps)
        << ",\"mean_observed_rps\":"
        << format_number(calibration.rate.mean_observed_rps)
        << "}}";

    out << ",\"node_usage\":[";
    for (std::size_t i = 0; i < report.node_usage.size(); ++i) {
      const NodeUsage& row = report.node_usage[i];
      if (i > 0) out << ",";
      out << "{\"node\":\"" << json_escape(row.label)
          << "\",\"batches\":" << row.batches
          << ",\"busy_ms\":" << format_number(row.busy_ms)
          << ",\"occupancy\":" << format_number(row.occupancy) << "}";
    }
    out << "],\"switch_timeline\":[";
    for (std::size_t i = 0; i < report.switch_timeline.size(); ++i) {
      const TimelineEntry& entry = report.switch_timeline[i];
      if (i > 0) out << ",";
      out << "{\"rep\":" << entry.rep << ",\"t_ms\":" << format_number(entry.t_ms)
          << ",\"event\":\"" << json_escape(entry.event) << "\",\"node\":\""
          << json_escape(entry.node) << "\"}";
    }
    out << "]";
    // Like the profile key: only present when a health engine ran, so
    // non-health reports keep byte identity.
    if (report.health.enabled) {
      const HealthReport& health = report.health;
      out << ",\"health\":{\"alerts\":" << health.alerts.size()
          << ",\"false_positives\":" << health.false_positives
          << ",\"false_positive_rate\":" << format_number(health.false_positive_rate)
          << ",\"evaluations\":" << health.evaluations
          << ",\"completed\":" << health.completed
          << ",\"violations\":" << health.violations
          << ",\"first_violation_ms\":" << format_number(health.first_violation_ms)
          << ",\"first_fire_ms\":" << format_number(health.first_fire_ms)
          << ",\"mttd_ms\":" << format_number(health.mttd_ms) << ",\"incidents\":[";
      for (std::size_t i = 0; i < health.alerts.size(); ++i) {
        const HealthAlert& alert = health.alerts[i];
        if (i > 0) out << ",";
        out << "{\"rep\":" << alert.rep << ",\"detector\":\""
            << json_escape(alert.detector) << "\",\"model\":\""
            << json_escape(alert.model) << "\",\"node\":\""
            << json_escape(alert.node)
            << "\",\"open_ms\":" << format_number(alert.open_ms)
            << ",\"fire_ms\":" << format_number(alert.fire_ms)
            << ",\"resolve_ms\":" << format_number(alert.resolve_ms)
            << ",\"resolved_at_end\":"
            << (alert.resolved_at_end ? "true" : "false")
            << ",\"peak_severity\":" << format_number(alert.peak_severity)
            << ",\"ticks_breached\":" << alert.ticks_breached
            << ",\"blame\":\"" << json_escape(alert.blame)
            << "\",\"violations\":" << alert.violations
            << ",\"completed\":" << alert.completed << "}";
      }
      out << "]}";
    }
    // Wall-clock timings are nondeterministic; the key only appears when a
    // profiler ran, so non-profile reports keep byte identity.
    if (!report.profile.empty()) {
      out << ",\"profile\":[";
      for (std::size_t i = 0; i < report.profile.size(); ++i) {
        const PhaseProfile& row = report.profile[i];
        if (i > 0) out << ",";
        out << "{\"phase\":\"" << json_escape(row.phase)
            << "\",\"calls\":" << row.calls
            << ",\"total_ms\":" << format_number(row.total_ms)
            << ",\"mean_us\":" << format_number(row.mean_us)
            << ",\"max_us\":" << format_number(row.max_us) << "}";
      }
      out << "]";
    }
    out << "}";
  }
  out << "]}\n";
}

bool write_report_json_file(const std::string& path,
                            const std::vector<AnalysisReport>& runs,
                            std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  write_report_json(out, runs);
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write failed for " + path;
    return false;
  }
  return true;
}

}  // namespace paldia::obs
