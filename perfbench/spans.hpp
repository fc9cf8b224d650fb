// Benchmark-side tracing: host-time spans recorded around the harness's
// calls into each library layer, plus a SchedulerPolicy decorator that times
// Algorithm 1 (select_hardware) and the dispatch planner (plan_dispatch).
//
// Spans live in memory and are written as JSON Lines when the run ends. A
// span has a name, start and end (CLOCK_MONOTONIC ns, the clock Python's
// time.monotonic_ns() reads), its parent's id and the run it served
// (endpoint, scheme, model). Policy calls are too many to log one by one
// (about 700,000 dispatch plans per fleet run), so each decorator logs them
// as one aggregate span per parent with a call count and the summed call
// time.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/scheduler_policy.hpp"

namespace paldia::perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Whom a span served; endpoint -1 and empty strings mean the whole workload.
struct RunId {
  int endpoint = -1;
  std::string scheme;
  std::string model;
};

struct SpanRecord {
  std::string name;
  int id = 0;
  int parent = -1;  // -1: a top-level phase of the harness's main()
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// end - start for a plain span; the summed call time of an aggregate.
  std::int64_t total_ns = 0;
  std::uint64_t calls = 1;
  RunId run;
};

/// Phase timing for one harness process. Set-up phases are always timed,
/// because setup_s is an end-to-end metric; span records are kept only when
/// tracing.
class SpanLog {
 public:
  explicit SpanLog(bool tracing) : tracing_(tracing) {}

  bool tracing() const { return tracing_; }
  /// Summed host time of the phases opened with setup = true.
  std::int64_t setup_ns() const { return setup_ns_; }

  /// Returns the span's index, or -1 when not tracing.
  int open(const char* name, RunId run, std::int64_t start) {
    if (!tracing_) return -1;
    SpanRecord span;
    span.name = name;
    span.id = static_cast<int>(spans_.size());
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start_ns = start;
    span.run = std::move(run);
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void close(int id, std::int64_t start, std::int64_t end, bool setup) {
    if (setup) setup_ns_ += end - start;
    if (id < 0) return;
    auto& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = end;
    span.total_ns = end - start;
    stack_.pop_back();
  }

  /// Log `calls` calls of `name` made under the currently open span.
  void add_calls(const char* name, const RunId& run, std::int64_t first_ns,
                 std::int64_t last_ns, std::int64_t total_ns,
                 std::uint64_t calls) {
    if (!tracing_ || calls == 0) return;
    SpanRecord span;
    span.name = name;
    span.id = static_cast<int>(spans_.size());
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start_ns = first_ns;
    span.end_ns = last_ns;
    span.total_ns = total_ns;
    span.calls = calls;
    span.run = run;
    spans_.push_back(std::move(span));
  }

  /// Write every span as one JSON object per line. Returns false on an I/O
  /// error.
  bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (const auto& span : spans_) {
      std::fprintf(out,
                   "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"total_ns\":%lld,\"calls\":%llu,"
                   "\"endpoint\":%d,\"scheme\":\"%s\",\"model\":\"%s\"}\n",
                   span.id, span.parent, span.name.c_str(),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns),
                   static_cast<long long>(span.total_ns),
                   static_cast<unsigned long long>(span.calls),
                   span.run.endpoint, span.run.scheme.c_str(),
                   span.run.model.c_str());
    }
    return std::fclose(out) == 0;
  }

 private:
  bool tracing_;
  std::int64_t setup_ns_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// Scoped phase: times its lifetime and, when tracing, records it as a span
/// nested under the enclosing phase.
class Phase {
 public:
  Phase(SpanLog& log, const char* name, RunId run = {}, bool setup = false)
      : log_(&log), setup_(setup), start_(now_ns()) {
    id_ = log.open(name, std::move(run), start_);
  }
  ~Phase() { log_->close(id_, start_, now_ns(), setup_); }

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  SpanLog* log_;
  bool setup_;
  std::int64_t start_;
  int id_ = -1;
};

/// Times every select_hardware / plan_dispatch call of the wrapped policy
/// and forwards every other hook, so choices, decision records and
/// calibration match the undecorated run.
class TimedPolicy final : public core::SchedulerPolicy {
 public:
  /// Framework hands its tracer to this decorator, and set_tracer is not
  /// virtual; the wrapped policy records the decision sweeps, so it is
  /// given the same tracer here.
  TimedPolicy(std::unique_ptr<core::SchedulerPolicy> inner,
              const hw::Catalog& catalog, obs::Tracer* tracer, RunId run)
      : SchedulerPolicy(catalog), inner_(std::move(inner)), run_(std::move(run)) {
    inner_->set_tracer(tracer);
  }

  std::string name() const override { return inner_->name(); }

  hw::NodeType select_hardware(const std::vector<core::DemandSnapshot>& demand,
                               hw::NodeType current, TimeMs now) override {
    const std::int64_t start = now_ns();
    const hw::NodeType chosen = inner_->select_hardware(demand, current, now);
    select_.add(start, now_ns());
    return chosen;
  }

  core::SplitPlan plan_dispatch(const core::DemandSnapshot& demand,
                                hw::NodeType node, TimeMs now) override {
    const std::int64_t start = now_ns();
    const core::SplitPlan plan = inner_->plan_dispatch(demand, node, now);
    dispatch_.add(start, now_ns());
    return plan;
  }

  hw::NodeType on_node_failure(hw::NodeType failed) override {
    return inner_->on_node_failure(failed);
  }
  int desired_containers(const core::SplitPlan& plan) const override {
    return inner_->desired_containers(plan);
  }
  perfmodel::TmaxCacheStats tmax_cache_stats() const override {
    return inner_->tmax_cache_stats();
  }

  /// Log the calls made since the last flush under the open span.
  void flush(SpanLog& log) {
    log.add_calls("core.policy.select", run_, select_.first, select_.last,
                  select_.total_ns, select_.calls);
    log.add_calls("core.policy.dispatch", run_, dispatch_.first, dispatch_.last,
                  dispatch_.total_ns, dispatch_.calls);
    select_ = {};
    dispatch_ = {};
  }

 private:
  struct Tally {
    std::int64_t first = 0;
    std::int64_t last = 0;
    std::int64_t total_ns = 0;
    std::uint64_t calls = 0;

    void add(std::int64_t start, std::int64_t end) {
      if (calls++ == 0) first = start;
      last = end;
      total_ns += end - start;
    }
  };

  std::unique_ptr<core::SchedulerPolicy> inner_;
  RunId run_;
  Tally select_;
  Tally dispatch_;
};

}  // namespace paldia::perfbench
