#include "src/obs/export.hpp"

#include <cctype>
#include <ostream>
#include <sstream>
#include <vector>

#include "src/common/log.hpp"
#include "src/common/thread_pool.hpp"
#include "src/hw/node_spec.hpp"
#include "src/models/model_spec.hpp"
#include "src/obs/text_format.hpp"
#include "src/telemetry/slo_tracker.hpp"

namespace paldia::obs {
namespace {

std::string csv_escape(const std::string& cell) {
  // \r must quote too: a bare CR inside a cell splits the row for any
  // reader that treats CRLF (or lone CR) as a record separator.
  if (cell.find_first_of(",\"\n\r") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += "\"\"";
    out += c;
  }
  out += "\"";
  return out;
}

std::string sanitize(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    out += std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '-';
  }
  return out;
}

}  // namespace

ExportFormat format_for_path(const std::string& path) {
  const auto dot = path.find_last_of('.');
  if (dot != std::string::npos && path.substr(dot) == ".csv") {
    return ExportFormat::kCsv;
  }
  return ExportFormat::kJsonl;
}

bool warn_if_truncated(const RunTrace& trace, const std::string& context) {
  const std::uint64_t events = trace.dropped_events();
  const std::uint64_t decisions = trace.dropped_decisions();
  if (events == 0 && decisions == 0) return false;
  log_warn("trace export '", context, "' is truncated: ", events,
           " events and ", decisions,
           " decision records were dropped (raise TracerConfig capacities); "
           "attribution/calibration reports over this trace undercount");
  return true;
}

std::string derive_trace_path(const std::string& base, const std::string& scenario,
                              const std::string& scheme) {
  const std::string tag = sanitize(scenario) + "_" + sanitize(scheme);
  const auto dot = base.find_last_of('.');
  const auto slash = base.find_last_of('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return base + "." + tag + ".json";
  }
  return base.substr(0, dot) + "." + tag + base.substr(dot);
}

// --- ExportStream -----------------------------------------------------------

ExportStream::ExportStream(std::ostream& out, ExportFormat format)
    : out_(&out), format_(format), path_("output stream") {}

ExportStream::ExportStream(const std::string& path)
    : format_(format_for_path(path)),
      file_(std::make_unique<std::ofstream>(path, std::ios::binary | std::ios::trunc)),
      path_(path) {
  if (!*file_) {
    error_ = "cannot open " + path;
    file_.reset();
    return;
  }
  out_ = file_.get();
}

void ExportStream::flush() {
  out_->flush();
  if (!*out_ && error_.empty()) error_ = "write failed for " + path_;
}

void ExportStream::write_reps(
    std::size_t reps, std::string_view csv_header,
    const std::function<void(std::size_t, std::ostream&)>& format_rep) {
  if (!ok()) return;
  std::vector<std::ostringstream> buffers(reps);
  for_each_concurrently(reps, [&](std::size_t rep) { format_rep(rep, buffers[rep]); });
  for (const std::ostringstream& buffer : buffers) {
    const std::string_view rows = buffer.view();
    if (rows.empty()) continue;
    if (format_ == ExportFormat::kCsv && !header_written_) {
      header_written_ = true;
      *out_ << csv_header;
    }
    out_->write(rows.data(), static_cast<std::streamsize>(rows.size()));
  }
  flush();
}

// --- MetricsWriter ----------------------------------------------------------

namespace {
const char* const kMetricsColumns[] = {
    "figure",         "scheme",          "workload",
    "trace",          "requests",        "slo_compliance",
    "mean_latency_ms", "p50_latency_ms", "p95_latency_ms",
    "p99_latency_ms", "p99_solo_ms",     "p99_queue_ms",
    "p99_interference_ms", "p99_cold_start_ms", "cost",
    "average_power",  "gpu_utilization", "cpu_utilization",
    "goodput_rps",    "offered_rps",     "cold_starts",
    "slo_violations",
    // One column per telemetry::ViolationCause, in enum order.
    "viol_cold_start", "viol_gateway_queue", "viol_batching",
    "viol_mps_interference", "viol_hardware_switch", "viol_failure_retry",
    "viol_execution", "viol_unserved",
    "tmax_mape", "tmax_coverage", "rate_mape", "calib_intervals",
    "tmax_cache_hits", "tmax_cache_misses", "tmax_cache_hit_rate",
};
}  // namespace

void MetricsWriter::write(const telemetry::RunMetrics& metrics,
                          const std::string& figure) {
  if (!ok()) return;
  const auto& breakdown = metrics.p99_breakdown;
  if (format_ == ExportFormat::kCsv) {
    if (!header_written_) {
      header_written_ = true;
      bool first = true;
      for (const char* column : kMetricsColumns) {
        if (!first) *out_ << ",";
        first = false;
        *out_ << column;
      }
      *out_ << "\n";
    }
    *out_ << csv_escape(figure) << "," << csv_escape(metrics.scheme) << ","
          << csv_escape(metrics.workload) << "," << csv_escape(metrics.trace) << ","
          << metrics.requests;
    for (const double value :
         {metrics.slo_compliance, metrics.mean_latency_ms, metrics.p50_latency_ms,
          metrics.p95_latency_ms, metrics.p99_latency_ms, breakdown.solo_ms,
          breakdown.queue_ms, breakdown.interference_ms, breakdown.cold_start_ms,
          metrics.cost, metrics.average_power, metrics.gpu_utilization,
          metrics.cpu_utilization, metrics.goodput_rps, metrics.offered_rps}) {
      *out_ << "," << format_number(value);
    }
    *out_ << "," << metrics.cold_starts << "," << format_number(metrics.slo_violations);
    for (const double count : metrics.violations_by_cause) {
      *out_ << "," << format_number(count);
    }
    for (const double value :
         {metrics.tmax_mape, metrics.tmax_coverage, metrics.rate_mape,
          metrics.calib_intervals, metrics.tmax_cache_hits,
          metrics.tmax_cache_misses, metrics.tmax_cache_hit_rate}) {
      *out_ << "," << format_number(value);
    }
    *out_ << "\n";
  } else {
    *out_ << "{\"figure\":\"" << json_escape(figure) << "\",\"scheme\":\""
          << json_escape(metrics.scheme) << "\",\"workload\":\""
          << json_escape(metrics.workload) << "\",\"trace\":\""
          << json_escape(metrics.trace) << "\",\"requests\":" << metrics.requests
          << ",\"slo_compliance\":" << format_number(metrics.slo_compliance)
          << ",\"mean_latency_ms\":" << format_number(metrics.mean_latency_ms)
          << ",\"p50_latency_ms\":" << format_number(metrics.p50_latency_ms)
          << ",\"p95_latency_ms\":" << format_number(metrics.p95_latency_ms)
          << ",\"p99_latency_ms\":" << format_number(metrics.p99_latency_ms)
          << ",\"p99_breakdown\":{\"latency_ms\":" << format_number(breakdown.latency_ms)
          << ",\"solo_ms\":" << format_number(breakdown.solo_ms)
          << ",\"queue_ms\":" << format_number(breakdown.queue_ms)
          << ",\"interference_ms\":" << format_number(breakdown.interference_ms)
          << ",\"cold_start_ms\":" << format_number(breakdown.cold_start_ms)
          << ",\"samples\":" << breakdown.samples << "}"
          << ",\"cost\":" << format_number(metrics.cost)
          << ",\"average_power\":" << format_number(metrics.average_power)
          << ",\"gpu_utilization\":" << format_number(metrics.gpu_utilization)
          << ",\"cpu_utilization\":" << format_number(metrics.cpu_utilization)
          << ",\"goodput_rps\":" << format_number(metrics.goodput_rps)
          << ",\"offered_rps\":" << format_number(metrics.offered_rps)
          << ",\"cold_starts\":" << metrics.cold_starts
          << ",\"slo_violations\":" << format_number(metrics.slo_violations)
          << ",\"violation_causes\":{";
    for (int cause = 0; cause < telemetry::kViolationCauseCount; ++cause) {
      if (cause > 0) *out_ << ",";
      *out_ << "\"" << telemetry::violation_cause_name(
                           static_cast<telemetry::ViolationCause>(cause))
            << "\":" << format_number(metrics.violations_by_cause[cause]);
    }
    *out_ << "},\"calibration\":{\"tmax_mape\":" << format_number(metrics.tmax_mape)
          << ",\"tmax_coverage\":" << format_number(metrics.tmax_coverage)
          << ",\"rate_mape\":" << format_number(metrics.rate_mape)
          << ",\"intervals\":" << format_number(metrics.calib_intervals)
          << "},\"tmax_cache\":{\"hits\":" << format_number(metrics.tmax_cache_hits)
          << ",\"misses\":" << format_number(metrics.tmax_cache_misses)
          << ",\"hit_rate\":" << format_number(metrics.tmax_cache_hit_rate) << "}}\n";
  }
  flush();
}

// --- DecisionLogWriter ------------------------------------------------------

namespace {
constexpr std::string_view kDecisionHeader =
    "scheme,scenario,rep,t_ms,current,chosen,final,switch_begun,"
    "feasible,t_max_ms,best_t_max_ms,band_ms,wait_ctr,downgrade_ctr,"
    "emergency_ctr,cpu_short_circuit,predicted_rps,observed_rps,"
    "pool_size,candidates\n";
}  // namespace

void DecisionLogWriter::write(const RunTrace& trace, const std::string& scheme,
                              const std::string& scenario) {
  write_reps(trace.reps.size(), kDecisionHeader,
             [&](std::size_t rep, std::ostream& out) {
               if (trace.reps[rep] == nullptr) return;
               for (const auto& record : trace.reps[rep]->decisions()) {
                 write_record(out, record, static_cast<int>(rep), scheme, scenario);
               }
             });
}

void DecisionLogWriter::write_record(std::ostream& out, const DecisionRecord& record,
                                     int rep, const std::string& scheme,
                                     const std::string& scenario) const {
  const auto node = [](hw::NodeType type) {
    return std::string(hw::node_type_name(type));
  };
  if (format_ == ExportFormat::kCsv) {
    // Candidates as "node:t_max:feasible:price" joined with ';' — one cell,
    // still splittable without a CSV-in-CSV parser.
    std::string candidates;
    for (const auto& candidate : record.candidates) {
      if (!candidates.empty()) candidates += ";";
      candidates += node(candidate.node) + ":" +
                    format_number(candidate.t_max_ms) + ":" +
                    (candidate.feasible ? "1" : "0") + ":" +
                    format_number(candidate.price_per_hour);
    }
    out << csv_escape(scheme) << "," << csv_escape(scenario) << "," << rep << ","
        << format_number(record.t_ms) << "," << node(record.current) << ","
        << node(record.raw_choice) << "," << node(record.final_choice) << ","
        << (record.switch_begun ? 1 : 0) << "," << (record.raw_feasible ? 1 : 0)
        << "," << format_number(record.raw_t_max_ms) << ","
        << format_number(record.best_t_max_ms) << "," << format_number(record.band_ms)
        << "," << record.wait_ctr << ","
        << record.downgrade_ctr << "," << record.emergency_ctr << ","
        << (record.cpu_short_circuit ? 1 : 0) << ","
        << format_number(record.predicted_rps) << ","
        << format_number(record.observed_rps) << "," << record.pool_size << ","
        << csv_escape(candidates) << "\n";
  } else {
    out << "{\"scheme\":\"" << json_escape(scheme) << "\",\"scenario\":\""
        << json_escape(scenario) << "\",\"rep\":" << rep
        << ",\"t_ms\":" << format_number(record.t_ms) << ",\"current\":\""
        << node(record.current) << "\",\"chosen\":\"" << node(record.raw_choice)
        << "\",\"final\":\"" << node(record.final_choice)
        << "\",\"switch_begun\":" << (record.switch_begun ? "true" : "false")
        << ",\"feasible\":" << (record.raw_feasible ? "true" : "false")
        << ",\"t_max_ms\":" << format_number(record.raw_t_max_ms)
        << ",\"best_t_max_ms\":" << format_number(record.best_t_max_ms)
        << ",\"band_ms\":" << format_number(record.band_ms)
        << ",\"wait_ctr\":" << record.wait_ctr
        << ",\"downgrade_ctr\":" << record.downgrade_ctr
        << ",\"emergency_ctr\":" << record.emergency_ctr
        << ",\"cpu_short_circuit\":" << (record.cpu_short_circuit ? "true" : "false")
        << ",\"predicted_rps\":" << format_number(record.predicted_rps)
        << ",\"observed_rps\":" << format_number(record.observed_rps)
        << ",\"pool_size\":" << record.pool_size
        << ",\"candidates\":[";
    bool first = true;
    for (const auto& candidate : record.candidates) {
      if (!first) out << ",";
      first = false;
      out << "{\"node\":\"" << node(candidate.node)
          << "\",\"t_max_ms\":" << format_number(candidate.t_max_ms)
          << ",\"feasible\":" << (candidate.feasible ? "true" : "false")
          << ",\"price_per_hour\":" << format_number(candidate.price_per_hour)
          << ",\"best_y\":" << candidate.best_y << "}";
    }
    out << "]}\n";
  }
}

// --- RollupWriter -----------------------------------------------------------

namespace {
constexpr std::string_view kRollupHeader =
    "run,rep,window,window_start_ms,window_end_ms,model,node,"
    "completed,violations,unserved,viol_cold_start,"
    "viol_gateway_queue,viol_batching,viol_mps_interference,"
    "viol_hardware_switch,viol_failure_retry,viol_execution,"
    "viol_unserved,latency_count,latency_mean_ms,latency_p50_ms,"
    "latency_p95_ms,latency_p99_ms,latency_max_ms,hist,"
    "queue_depth_mean,queue_depth_samples,in_flight_mean,"
    "in_flight_samples\n";
}  // namespace

void RollupWriter::write(const RunTrace& trace, const std::string& run) {
  write_reps(trace.rollups.size(), kRollupHeader,
             [&](std::size_t rep, std::ostream& out) {
               const RollupAggregator* rollup = trace.rollups[rep].get();
               if (rollup == nullptr) return;
               for (const auto& [key, cell] : rollup->cells()) {
                 write_cell(out, key, cell, rollup->config(), static_cast<int>(rep),
                            run);
               }
             });
}

void RollupWriter::write_cell(std::ostream& out, const RollupKey& key,
                              const RollupCell& cell, const RollupConfig& config,
                              int rep, const std::string& run) const {
  const std::string model =
      key.model >= 0 && key.model < models::kModelCount
          ? std::string(models::model_id_name(models::ModelId(key.model)))
          : std::string();
  const std::string node =
      key.node >= 0 && key.node < hw::kNodeTypeCount
          ? std::string(hw::node_type_name(hw::NodeType(key.node)))
          : std::string();
  const TimeMs window_start = key.window * config.window_ms;
  const SketchSummary latency = cell.latency.summary();
  const auto hist = cell.latency.histogram().nonzero_buckets();
  const double queue_mean =
      cell.queue_depth_samples > 0
          ? cell.queue_depth_sum / static_cast<double>(cell.queue_depth_samples)
          : 0.0;
  const double in_flight_mean =
      cell.in_flight_samples > 0
          ? cell.in_flight_sum / static_cast<double>(cell.in_flight_samples)
          : 0.0;

  if (format_ == ExportFormat::kCsv) {
    // Histogram as "value:count" pairs joined with ';' — one cell, still
    // splittable without a CSV-in-CSV parser (decision-log idiom).
    std::string pairs;
    for (const auto& [value, count] : hist) {
      if (!pairs.empty()) pairs += ";";
      pairs += format_number(value) + ":" + std::to_string(count);
    }
    out << csv_escape(run) << "," << rep << "," << key.window << ","
        << format_number(window_start) << ","
        << format_number(window_start + config.window_ms)
        << "," << csv_escape(model) << "," << csv_escape(node) << ","
        << cell.completed << "," << cell.violations << "," << cell.unserved;
    for (const std::uint64_t count : cell.causes) out << "," << count;
    out << "," << latency.count << "," << format_number(latency.mean_ms) << ","
        << format_number(latency.p50_ms) << "," << format_number(latency.p95_ms) << ","
        << format_number(latency.p99_ms) << "," << format_number(latency.max_ms) << ","
        << csv_escape(pairs) << "," << format_number(queue_mean) << ","
        << cell.queue_depth_samples << "," << format_number(in_flight_mean) << ","
        << cell.in_flight_samples << "\n";
  } else {
    out << "{\"run\":\"" << json_escape(run) << "\",\"rep\":" << rep
        << ",\"window\":" << key.window
        << ",\"window_start_ms\":" << format_number(window_start)
        << ",\"window_end_ms\":" << format_number(window_start + config.window_ms)
        << ",\"model\":\"" << json_escape(model) << "\",\"node\":\""
        << json_escape(node) << "\",\"completed\":" << cell.completed
        << ",\"violations\":" << cell.violations
        << ",\"unserved\":" << cell.unserved << ",\"causes\":{";
    for (int cause = 0; cause < telemetry::kViolationCauseCount; ++cause) {
      if (cause > 0) out << ",";
      out << "\"" << telemetry::violation_cause_name(
                         static_cast<telemetry::ViolationCause>(cause))
          << "\":" << cell.causes[static_cast<std::size_t>(cause)];
    }
    out << "},\"latency\":{\"count\":" << latency.count
        << ",\"mean_ms\":" << format_number(latency.mean_ms)
        << ",\"p50_ms\":" << format_number(latency.p50_ms)
        << ",\"p95_ms\":" << format_number(latency.p95_ms)
        << ",\"p99_ms\":" << format_number(latency.p99_ms)
        << ",\"max_ms\":" << format_number(latency.max_ms) << "},\"hist\":[";
    bool first = true;
    for (const auto& [value, count] : hist) {
      if (!first) out << ",";
      first = false;
      out << "[" << format_number(value) << "," << count << "]";
    }
    out << "],\"queue_depth_mean\":" << format_number(queue_mean)
        << ",\"queue_depth_samples\":" << cell.queue_depth_samples
        << ",\"in_flight_mean\":" << format_number(in_flight_mean)
        << ",\"in_flight_samples\":" << cell.in_flight_samples << "}\n";
  }
}

// --- AlertWriter ------------------------------------------------------------

namespace {
// One header for both row kinds; summary rows leave the alert-only columns
// empty and vice versa.
constexpr std::string_view kAlertHeader =
    "run,rep,row,detector,model,node,open_ms,fire_ms,resolve_ms,"
    "resolved_at_end,peak_severity,ticks_breached,blame,violations,"
    "completed,first_violation_ms,evaluations,alerts\n";
}  // namespace

void AlertWriter::write(const RunTrace& trace, const std::string& run) {
  write_reps(trace.healths.size(), kAlertHeader,
             [&](std::size_t rep, std::ostream& out) {
               const HealthEngine* engine = trace.healths[rep].get();
               if (engine == nullptr) return;
               for (const AlertRecord& record : engine->alerts()) {
                 write_alert(out, record, static_cast<int>(rep), run);
               }
               write_summary(out, *engine, static_cast<int>(rep), run);
             });
}

void AlertWriter::write_alert(std::ostream& out, const AlertRecord& record, int rep,
                              const std::string& run) const {
  const std::string model =
      record.model >= 0 && record.model < models::kModelCount
          ? std::string(models::model_id_name(models::ModelId(record.model)))
          : std::string();
  const std::string node =
      record.node >= 0 && record.node < hw::kNodeTypeCount
          ? std::string(hw::node_type_name(hw::NodeType(record.node)))
          : std::string();
  const char* detector = health_detector_name(record.detector);
  const std::string_view blame = telemetry::violation_cause_name(record.blame);
  if (format_ == ExportFormat::kCsv) {
    out << csv_escape(run) << "," << rep << ",alert," << detector << ","
        << csv_escape(model) << "," << csv_escape(node) << ","
        << format_number(record.open_ms) << "," << format_number(record.fire_ms) << ","
        << format_number(record.resolve_ms) << "," << (record.resolved_at_end ? 1 : 0)
        << "," << format_number(record.peak_severity) << "," << record.ticks_breached
        << "," << blame << "," << record.violations << "," << record.completed
        << ",,,\n";
  } else {
    out << "{\"run\":\"" << json_escape(run) << "\",\"rep\":" << rep
        << ",\"row\":\"alert\",\"detector\":\"" << detector
        << "\",\"model\":\"" << json_escape(model) << "\",\"node\":\""
        << json_escape(node) << "\",\"open_ms\":" << format_number(record.open_ms)
        << ",\"fire_ms\":" << format_number(record.fire_ms)
        << ",\"resolve_ms\":" << format_number(record.resolve_ms)
        << ",\"resolved_at_end\":" << (record.resolved_at_end ? "true" : "false")
        << ",\"peak_severity\":" << format_number(record.peak_severity)
        << ",\"ticks_breached\":" << record.ticks_breached << ",\"blame\":\""
        << blame << "\",\"violations\":" << record.violations
        << ",\"completed\":" << record.completed << "}\n";
  }
}

void AlertWriter::write_summary(std::ostream& out, const HealthEngine& engine,
                                int rep, const std::string& run) const {
  if (format_ == ExportFormat::kCsv) {
    out << csv_escape(run) << "," << rep << ",summary,,,,,,,,,,,"
        << engine.violations() << "," << engine.completions() << ","
        << format_number(engine.first_violation_ms()) << "," << engine.evaluations()
        << "," << engine.alerts().size() << "\n";
  } else {
    out << "{\"run\":\"" << json_escape(run) << "\",\"rep\":" << rep
        << ",\"row\":\"summary\",\"completed\":" << engine.completions()
        << ",\"violations\":" << engine.violations()
        << ",\"first_violation_ms\":" << format_number(engine.first_violation_ms())
        << ",\"evaluations\":" << engine.evaluations()
        << ",\"alerts\":" << engine.alerts().size() << "}\n";
  }
}

}  // namespace paldia::obs
