#include "src/obs/chrome_trace.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <set>

#include "src/hw/node_spec.hpp"
#include "src/models/model_spec.hpp"
#include "src/obs/text_format.hpp"

namespace paldia::obs {
namespace {

// Process-id block per repetition: pid 0 = framework, 1..kNodeTypeCount =
// one process per hardware node type.
constexpr int kPidsPerRep = 1 + hw::kNodeTypeCount;

const char* lane_name(cluster::ShareMode mode) {
  switch (mode) {
    case cluster::ShareMode::kSpatial: return "mps";
    case cluster::ShareMode::kTemporal: return "time-shared";
    case cluster::ShareMode::kCpu: return "cpu";
  }
  return "?";
}

int lane_tid(cluster::ShareMode mode) { return static_cast<int>(mode); }

std::string model_name(std::int16_t tag) {
  if (tag < 0 || tag >= models::kModelCount) return "";
  return std::string(models::model_id_name(models::ModelId(tag)));
}

std::string node_name(std::int16_t tag) {
  if (tag < 0 || tag >= hw::kNodeTypeCount) return "";
  return std::string(hw::node_type_name(hw::NodeType(tag)));
}

class EventStream {
 public:
  explicit EventStream(std::ostream& out) : out_(out) {}

  /// Emit one raw JSON object (the caller supplies the braces' contents).
  void emit(const std::string& body) {
    if (!first_) out_ << ",\n";
    first_ = false;
    out_ << "{" << body << "}";
  }

 private:
  std::ostream& out_;
  bool first_ = true;
};

std::string common_fields(const char* ph, int pid, int tid, TimeMs ts) {
  std::string body = "\"ph\":\"";
  body += ph;
  body += "\",\"pid\":" + std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
          ",\"ts\":" + format_timestamp_us(ts);
  return body;
}

void emit_metadata(EventStream& stream, int pid, int tid, const char* kind,
                   const std::string& name) {
  stream.emit("\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
              ",\"tid\":" + std::to_string(tid) + ",\"ts\":0,\"name\":\"" + kind +
              "\",\"args\":{\"name\":\"" + json_escape(name) + "\"}");
}

void emit_request_async(EventStream& stream, int pid, std::int64_t id,
                        const char* name, const char* ph, TimeMs ts,
                        const std::string& args) {
  std::string body = common_fields(ph, pid, /*tid=*/0, ts);
  body += ",\"cat\":\"request\",\"id\":" + std::to_string(id);
  body += ",\"name\":\"";
  body += name;
  body += "\"";
  if (!args.empty()) body += ",\"args\":{" + args + "}";
  stream.emit(body);
}

std::string request_args(const TraceEvent& event) {
  return "\"model\":\"" + json_escape(model_name(event.model)) +
         "\",\"node\":\"" + json_escape(node_name(event.node)) +
         "\",\"lane\":\"" + lane_name(event.mode) +
         "\",\"batch_size\":" + std::to_string(event.batch_size) +
         ",\"spatial\":" + std::to_string(event.spatial) +
         ",\"temporal\":" + std::to_string(event.temporal) +
         ",\"latency_ms\":" + format_number(event.end_ms - event.start_ms) +
         ",\"solo_ms\":" + format_number(event.solo_ms) +
         ",\"interference_ms\":" + format_number(event.interference_ms) +
         ",\"cold_start_ms\":" + format_number(event.cold_ms);
}

/// One kRequest event as the nestable async sequence a trace viewer draws:
/// the request's "b" with its args, a "b"/"e" pair per phase (queue,
/// dispatch, execute) whose "e" carries the phase's duration, then the
/// request's "e".
void emit_request(EventStream& stream, int pid, const TraceEvent& event) {
  emit_request_async(stream, pid, event.id, "request", "b", event.start_ms,
                     request_args(event));
  const struct {
    const char* name;
    TimeMs begin_ms;
    TimeMs end_ms;
  } phases[] = {
      {"queue", event.start_ms, event.submit_ms},          // gateway + batching
      {"dispatch", event.submit_ms, event.exec_start_ms},  // lane/container/cold
      {"execute", event.exec_start_ms, event.end_ms},      // solo + interference
  };
  for (const auto& phase : phases) {
    emit_request_async(stream, pid, event.id, phase.name, "b", phase.begin_ms, "");
    emit_request_async(stream, pid, event.id, phase.name, "e", phase.end_ms,
                       "\"dur_ms\":" + format_number(phase.end_ms - phase.begin_ms));
  }
  emit_request_async(stream, pid, event.id, "request", "e", event.end_ms, "");
}

void emit_decision(EventStream& stream, int pid, const DecisionRecord& record) {
  std::string args =
      "\"current\":\"" +
      json_escape(std::string(hw::node_type_name(record.current))) +
      "\",\"chosen\":\"" +
      json_escape(std::string(hw::node_type_name(record.raw_choice))) +
      "\",\"final\":\"" +
      json_escape(std::string(hw::node_type_name(record.final_choice))) +
      "\",\"switch_begun\":" + (record.switch_begun ? "true" : "false") +
      ",\"feasible\":" + (record.raw_feasible ? "true" : "false") +
      ",\"t_max_ms\":" + format_number(record.raw_t_max_ms) +
      ",\"best_t_max_ms\":" + format_number(record.best_t_max_ms) +
      ",\"band_ms\":" + format_number(record.band_ms) +
      ",\"wait_ctr\":" + std::to_string(record.wait_ctr) +
      ",\"downgrade_ctr\":" + std::to_string(record.downgrade_ctr) +
      ",\"emergency_ctr\":" + std::to_string(record.emergency_ctr) +
      ",\"predicted_rps\":" + format_number(record.predicted_rps) +
      ",\"observed_rps\":" + format_number(record.observed_rps);
  if (record.has_sweep) {
    args += ",\"cpu_short_circuit\":";
    args += record.cpu_short_circuit ? "true" : "false";
    args += ",\"candidates\":[";
    bool first = true;
    for (const auto& candidate : record.candidates) {
      if (!first) args += ",";
      first = false;
      args += "{\"node\":\"" +
              json_escape(std::string(hw::node_type_name(candidate.node))) +
              "\",\"t_max_ms\":" + format_number(candidate.t_max_ms) +
              ",\"feasible\":" + (candidate.feasible ? "true" : "false") +
              ",\"price_per_hour\":" + format_number(candidate.price_per_hour) +
              ",\"best_y\":" + std::to_string(candidate.best_y) + "}";
    }
    args += "]";
  }
  std::string body = common_fields("i", pid, /*tid=*/1, record.t_ms);
  body += ",\"s\":\"p\",\"name\":\"hardware_selection\",\"args\":{" + args + "}";
  stream.emit(body);
}

void emit_rep(EventStream& stream, const Tracer& tracer, int rep,
              const std::string& label) {
  const int base = rep * kPidsPerRep;
  const std::string suffix =
      (label.empty() ? std::string() : label + " ") + "rep " + std::to_string(rep);

  emit_metadata(stream, base, 0, "process_name", "paldia framework (" + suffix + ")");
  emit_metadata(stream, base, 0, "thread_name", "requests/framework");
  emit_metadata(stream, base, 1, "thread_name", "scheduler decisions");

  // Name only node processes that actually carry events (deterministic:
  // derived from the recorded event sequence).
  std::set<int> used_nodes;
  for (const auto& event : tracer.events()) {
    if (event.type == TraceEvent::Type::kBatch && event.node >= 0) {
      used_nodes.insert(event.node);
    }
  }
  for (const int node : used_nodes) {
    const int pid = base + 1 + node;
    emit_metadata(stream, pid, 0, "process_name",
                  std::string(hw::node_type_name(hw::NodeType(node))) + " (" +
                      suffix + ")");
    for (const auto mode : {cluster::ShareMode::kSpatial, cluster::ShareMode::kTemporal,
                            cluster::ShareMode::kCpu}) {
      emit_metadata(stream, pid, lane_tid(mode), "thread_name", lane_name(mode));
    }
  }

  for (const auto& event : tracer.events()) {
    switch (event.type) {
      case TraceEvent::Type::kRequest:
        emit_request(stream, base, event);
        break;
      case TraceEvent::Type::kBatch: {
        std::string body = common_fields("X", base + 1 + std::max<int>(0, event.node),
                                         lane_tid(event.mode), event.start_ms);
        body += ",\"dur\":" + format_timestamp_us(event.end_ms - event.start_ms);
        body += ",\"name\":\"batch " + json_escape(model_name(event.model)) + " x" +
                std::to_string(event.batch_size) + "\"";
        // submit/e2e are reconstructed from start - lane_wait so the inline
        // report extraction can quantize through the exact same arithmetic.
        const double submit_ms = event.start_ms - event.value;
        body += ",\"args\":{\"batch_id\":" + std::to_string(event.id) +
                ",\"lane\":\"" + lane_name(event.mode) +
                "\",\"solo_ms\":" + format_number(event.solo_ms) +
                ",\"cold_start_ms\":" + format_number(event.cold_ms) +
                ",\"lane_wait_ms\":" + format_number(event.value) +
                ",\"submit_ms\":" + format_number(submit_ms) +
                ",\"e2e_ms\":" + format_number(event.end_ms - submit_ms) + "}";
        stream.emit(body);
        break;
      }
      case TraceEvent::Type::kInstant: {
        std::string body = common_fields("i", base, /*tid=*/0, event.start_ms);
        body += ",\"s\":\"p\",\"name\":\"";
        body += event.name;
        body += "\",\"args\":{\"value\":" + format_number(event.value);
        if (event.node >= 0) {
          body += ",\"node\":\"" + json_escape(node_name(event.node)) + "\"";
        }
        if (event.id >= 0) body += ",\"id\":" + std::to_string(event.id);
        if (event.model >= 0) {
          body += ",\"model\":\"" + json_escape(model_name(event.model)) + "\"";
        }
        body += "}";
        stream.emit(body);
        break;
      }
      case TraceEvent::Type::kCounter: {
        std::string name = event.name;
        if (event.model >= 0) name += ":" + model_name(event.model);
        std::string body = common_fields("C", base, /*tid=*/0, event.start_ms);
        body += ",\"name\":\"" + json_escape(name) +
                "\",\"args\":{\"value\":" + format_number(event.value) + "}";
        stream.emit(body);
        break;
      }
      case TraceEvent::Type::kSpanBegin:
      case TraceEvent::Type::kSpanEnd: {
        std::string body = common_fields(
            event.type == TraceEvent::Type::kSpanBegin ? "B" : "E", base,
            /*tid=*/0, event.start_ms);
        body += ",\"name\":\"";
        body += event.name;
        body += "\"";
        stream.emit(body);
        break;
      }
    }
  }

  for (const auto& record : tracer.decisions()) emit_decision(stream, base, record);

  if (tracer.dropped_events() > 0 || tracer.dropped_decisions() > 0) {
    std::string body = common_fields("i", base, /*tid=*/0, 0.0);
    body += ",\"s\":\"p\",\"name\":\"dropped_records\",\"args\":{\"events\":" +
            std::to_string(tracer.dropped_events()) +
            ",\"decisions\":" + std::to_string(tracer.dropped_decisions()) + "}";
    stream.emit(body);
  }
}

// Self-profile lane (--profile): one "X" slice per instrumented phase on
// the framework process, tid 2, laid out back-to-back so relative phase
// costs read directly off the lane. These are host wall-clock aggregates —
// nondeterministic, and deliberately emitted without "batch_id" so the
// report extractor's batch parser skips them.
void emit_profile_lane(EventStream& stream, const Profiler& profiler, int rep) {
  const int pid = rep * kPidsPerRep;
  emit_metadata(stream, pid, 2, "thread_name", "self-profile");
  double cursor_ms = 0.0;
  for (int i = 0; i < kProfilePhaseCount; ++i) {
    const PhaseStats& stats = profiler.phases()[static_cast<std::size_t>(i)];
    if (stats.calls == 0) continue;
    const double total_ms = static_cast<double>(stats.total_ns) / 1e6;
    std::string body = common_fields("X", pid, /*tid=*/2, cursor_ms);
    body += ",\"dur\":" + format_timestamp_us(total_ms);
    body += ",\"name\":\"";
    body += profile_phase_name(static_cast<ProfilePhase>(i));
    body += "\",\"args\":{\"calls\":" + std::to_string(stats.calls) +
            ",\"mean_us\":" +
            format_number(static_cast<double>(stats.total_ns) /
                (1e3 * static_cast<double>(stats.calls))) +
            ",\"max_us\":" + format_number(static_cast<double>(stats.max_ns) / 1e3) + "}";
    stream.emit(body);
    cursor_ms += total_ms;
  }
}

// Health lane (--alerts-out): one "X" slice per resolved incident on the
// framework process, tid 3, spanning open -> resolve. Fully deterministic
// (simulated time), but deliberately emitted without "batch_id" so the
// report extractor's batch parser skips the lane, like the profile lane.
void emit_health_lane(EventStream& stream, const HealthEngine& engine, int rep) {
  const int pid = rep * kPidsPerRep;
  emit_metadata(stream, pid, 3, "thread_name", "health");
  for (const AlertRecord& record : engine.alerts()) {
    std::string body = common_fields("X", pid, /*tid=*/3, record.open_ms);
    body += ",\"dur\":" + format_timestamp_us(record.resolve_ms - record.open_ms);
    body += ",\"name\":\"";
    body += health_detector_name(record.detector);
    body += "\",\"args\":{\"detector\":\"";
    body += health_detector_name(record.detector);
    body += "\",\"model\":\"" + json_escape(model_name(record.model)) +
            "\",\"node\":\"" + json_escape(node_name(record.node)) +
            "\",\"fire_ms\":" + format_number(record.fire_ms) +
            ",\"resolved_at_end\":" + (record.resolved_at_end ? "true" : "false") +
            ",\"peak_severity\":" + format_number(record.peak_severity) +
            ",\"ticks_breached\":" + std::to_string(record.ticks_breached) +
            ",\"blame\":\"" +
            std::string(telemetry::violation_cause_name(record.blame)) +
            "\",\"violations\":" + std::to_string(record.violations) +
            ",\"completed\":" + std::to_string(record.completed) + "}";
    stream.emit(body);
  }
}

}  // namespace

void write_chrome_trace(std::ostream& out, const RunTrace& trace,
                        const std::string& label) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  EventStream stream(out);
  for (std::size_t rep = 0; rep < trace.reps.size(); ++rep) {
    if (trace.reps[rep] == nullptr) continue;
    emit_rep(stream, *trace.reps[rep], static_cast<int>(rep), label);
  }
  for (std::size_t rep = 0; rep < trace.profiles.size(); ++rep) {
    const Profiler* profiler = trace.profiles[rep].get();
    if (profiler == nullptr || profiler->empty()) continue;
    emit_profile_lane(stream, *profiler, static_cast<int>(rep));
  }
  for (std::size_t rep = 0; rep < trace.healths.size(); ++rep) {
    const HealthEngine* engine = trace.healths[rep].get();
    if (engine == nullptr || engine->alerts().empty()) continue;
    emit_health_lane(stream, *engine, static_cast<int>(rep));
  }
  // Truncation is surfaced in machine-readable form: an analyzer must be
  // able to tell a complete trace from one whose ring buffers overflowed.
  out << "\n],\"metadata\":{\"reps\":" << trace.reps.size()
      << ",\"dropped_events\":" << trace.dropped_events()
      << ",\"dropped_decisions\":" << trace.dropped_decisions() << "}}\n";
}

bool write_chrome_trace_file(const std::string& path, const RunTrace& trace,
                             const std::string& label, std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  write_chrome_trace(out, trace, label);
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write failed for " + path;
    return false;
  }
  return true;
}

}  // namespace paldia::obs
