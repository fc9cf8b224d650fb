// Shared helpers for the figure/table benches: flag parsing, scheme-row
// printing, and the paper-vs-measured framing every binary emits.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/table.hpp"
#include "src/common/thread_pool.hpp"
#include "src/exp/runner.hpp"
#include "src/exp/scenario.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/obs/export.hpp"
#include "src/obs/report.hpp"

namespace paldia::bench {

struct BenchOptions {
  int repetitions = 3;  // the paper uses 5; --reps=5 reproduces that
  bool full = false;    // --full: uncompressed traces where applicable
  int threads = 0;      // worker threads; 0 = hardware concurrency, 1 = serial
  /// Chrome trace-event JSON base path; each (scenario, scheme) run writes
  /// its own derived file (see obs::derive_trace_path). Empty = disabled.
  std::string trace_out;
  /// Streaming RunMetrics rows (.csv -> CSV, else JSONL). Empty = disabled.
  std::string metrics_out;
  /// Streaming scheduler decision log (.csv -> CSV, else JSONL).
  std::string decisions_out;
  /// Analysis report (violation attribution + calibration + occupancy) over
  /// all runs of the sweep, written as JSON at exit. The same analysis
  /// `paldia-analyze` performs offline on --trace-out files.
  std::string report_out;
  /// --no-tmax-cache: run the Eq. 1 sweep memoization in bypass mode —
  /// identical lookups and hit/miss counters, but every sweep recomputes.
  /// Exports must come out byte-identical to the cached run; this flag is
  /// the reference side of that check.
  bool tmax_cache = true;
  /// --no-request-pool: run the request-path arena in bypass mode — same
  /// block API and bookkeeping, but every buffer is dropped on release and
  /// re-allocated on acquire (plain-vector behaviour). Exports must come
  /// out byte-identical to the pooled run.
  bool request_pool = true;
  /// --no-prune: run Algorithm 1's candidate sweep as the exhaustive linear
  /// enumeration instead of the pruned (capability-masked, lower-bounded,
  /// cost-bucketed) walk. Choices and exports must come out byte-identical
  /// to the pruned run; this flag is the reference side of that check.
  bool prune = true;
  /// --sample-rate=N: keep every SLO-violating request lifecycle in the
  /// trace plus a deterministic 1-in-N of compliant ones (1 = keep all).
  /// The decision hashes the request id against a fixed seed — never wall
  /// clock or thread ids — so sampled exports stay byte-identical across
  /// --threads, and report counts stay exact via the tracer's sampled_out
  /// counters.
  std::uint32_t sample_rate = 1;
  /// --rollup-out=FILE: windowed per-(model, node, cause) rollup stream
  /// (.csv -> CSV, else JSONL), fed by every completion regardless of
  /// --sample-rate. `paldia-analyze --rollup` rebuilds compliance and
  /// attribution from this stream alone.
  std::string rollup_out;
  /// --profile: time the simulator's own hot paths (event drain, selection
  /// sweep, dispatch/monitor ticks, export flush) and emit a
  /// per-phase report section plus a chrome-trace self-profile lane.
  bool profile = false;
  /// --alerts-out=FILE: SLO health alert stream (.csv -> CSV, else JSONL) —
  /// one row per resolved incident plus a per-rep ground-truth summary row.
  /// Enables the HealthEngine; `paldia-analyze --alerts` rebuilds the
  /// report's "health" section from this stream alone.
  std::string alerts_out;
  /// --slo-target=F: SLO objective behind the health engine's error budget
  /// (budget = 1 - target; burn rate = violation fraction / budget).
  double slo_target = 0.999;
  /// --burn-windows=FAST,SLOW: burn-rate alert windows in ms. The SRE-style
  /// multi-window rule fires only when both windows breach the threshold.
  double burn_fast_ms = 60'000.0;
  double burn_slow_ms = 600'000.0;
  /// --catalog=SPEC: global node catalog for fleet drivers — 'table2'
  /// (default) or 'gen:<count>' with optional :seed=/:gpu=/:noise=/:twins=
  /// (hw::parse_catalog_spec). Non-fleet drivers ignore it.
  std::string catalog = "table2";
  /// --endpoints=N: serving endpoints (gateways) for fleet drivers. Each
  /// endpoint owns a slice of the catalog and an independent serving loop.
  int endpoints = 4;
};

/// A bad command line: print why and exit 2, like `paldia-analyze`.
[[noreturn]] inline void usage_error(const std::string& message) {
  std::fprintf(stderr, "error: %s (see --help)\n", message.c_str());
  std::exit(2);
}

/// `text` parsed in full as a T, else a usage error naming `flag`.
template <typename T>
T parse_number(std::string_view flag, std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto result = std::from_chars(text.data(), end, value);
  if (text.empty() || result.ec != std::errc() || result.ptr != end) {
    usage_error(std::string(flag) + " wants a number, got '" + std::string(text) +
                "'");
  }
  return value;
}

/// Parse the shared driver flags. Any other argument is a usage error,
/// except the flags a driver parses itself, named in `own_flags` (e.g.
/// "--requests", matched with or without "=value").
inline BenchOptions parse_options(
    int argc, char** argv, std::initializer_list<std::string_view> own_flags = {}) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--reps=", 0) == 0) {
      options.repetitions = std::max(1, parse_number<int>("--reps", arg.substr(7)));
    } else if (arg.rfind("--threads=", 0) == 0) {
      options.threads = std::max(0, parse_number<int>("--threads", arg.substr(10)));
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      options.trace_out = arg.substr(12);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      options.metrics_out = arg.substr(14);
    } else if (arg.rfind("--decisions-out=", 0) == 0) {
      options.decisions_out = arg.substr(16);
    } else if (arg.rfind("--report-out=", 0) == 0) {
      options.report_out = arg.substr(13);
    } else if (arg == "--full") {
      options.full = true;
    } else if (arg == "--no-tmax-cache") {
      options.tmax_cache = false;
    } else if (arg == "--no-request-pool") {
      options.request_pool = false;
    } else if (arg == "--no-prune") {
      options.prune = false;
    } else if (arg.rfind("--sample-rate=", 0) == 0) {
      options.sample_rate = static_cast<std::uint32_t>(
          std::max(1, parse_number<int>("--sample-rate", arg.substr(14))));
    } else if (arg.rfind("--rollup-out=", 0) == 0) {
      options.rollup_out = arg.substr(13);
    } else if (arg == "--profile") {
      options.profile = true;
    } else if (arg.rfind("--alerts-out=", 0) == 0) {
      options.alerts_out = arg.substr(13);
    } else if (arg.rfind("--slo-target=", 0) == 0) {
      options.slo_target = parse_number<double>("--slo-target", arg.substr(13));
    } else if (arg.rfind("--catalog=", 0) == 0) {
      options.catalog = arg.substr(10);
    } else if (arg.rfind("--endpoints=", 0) == 0) {
      options.endpoints = std::max(1, parse_number<int>("--endpoints", arg.substr(12)));
    } else if (arg.rfind("--burn-windows=", 0) == 0) {
      const std::string_view windows = std::string_view(arg).substr(15);
      const std::size_t comma = windows.find(',');
      if (comma == std::string_view::npos) {
        usage_error("--burn-windows wants FAST,SLOW in ms, got '" +
                    std::string(windows) + "'");
      }
      options.burn_fast_ms =
          parse_number<double>("--burn-windows", windows.substr(0, comma));
      options.burn_slow_ms =
          parse_number<double>("--burn-windows", windows.substr(comma + 1));
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--reps=N] [--threads=N] [--full] [--no-tmax-cache]\n"
          "          [--no-request-pool] [--no-prune]\n"
          "          [--trace-out=FILE.json]   Chrome trace-event JSON per\n"
          "                                    (scenario, scheme) run (Perfetto)\n"
          "          [--metrics-out=FILE]      RunMetrics rows, streaming\n"
          "                                    (.csv -> CSV, else JSON Lines)\n"
          "          [--decisions-out=FILE]    scheduler decision log, one row\n"
          "                                    per monitor tick per repetition\n"
          "          [--report-out=FILE.json]  violation-attribution +\n"
          "                                    calibration report over the sweep\n"
          "          [--no-tmax-cache]         recompute every Eq. 1 sweep\n"
          "                                    (memoization bypass reference)\n"
          "          [--no-request-pool]       drop request buffers instead of\n"
          "                                    pooling (arena bypass reference)\n"
          "          [--no-prune]              exhaustive linear Algorithm 1\n"
          "                                    sweep (pruning bypass reference)\n"
          "          [--sample-rate=N]         keep all SLO violators + 1-in-N\n"
          "                                    compliant lifecycles in the trace\n"
          "                                    (deterministic; counts stay exact)\n"
          "          [--rollup-out=FILE]       windowed rollup stream, one row\n"
          "                                    per (rep, window, model, node)\n"
          "          [--profile]               simulator self-profile: per-phase\n"
          "                                    report section + trace lane\n"
          "          [--alerts-out=FILE]       SLO health alert stream: one row\n"
          "                                    per incident + per-rep summary\n"
          "          [--slo-target=F]          SLO objective for the health\n"
          "                                    error budget (default 0.999)\n"
          "          [--burn-windows=FAST,SLOW] burn-rate windows in ms\n"
          "                                    (default 60000,600000)\n"
          "          [--catalog=SPEC]          fleet catalog: 'table2' or\n"
          "                                    'gen:<count>[:seed=S][:gpu=F]'\n"
          "          [--endpoints=N]           fleet serving endpoints, each\n"
          "                                    over a slice of the catalog\n",
          argv[0]);
      std::exit(0);
    } else {
      const std::string_view name = std::string_view(arg).substr(0, arg.find('='));
      bool own = false;
      for (const std::string_view flag : own_flags) own = own || name == flag;
      if (!own) usage_error("unknown option '" + arg + "'");
    }
  }
  return options;
}

/// Pool shared by a figure binary's whole sweep: schemes fan out here, each
/// scheme's repetitions fan out inside Runner::run, and the policies'
/// y-sweeps nest one level below that — all on the same task-group executor.
inline ThreadPool& shared_pool(const BenchOptions& options) {
  static ThreadPool pool(static_cast<std::size_t>(options.threads));
  return pool;
}

/// SchemeFactoryOptions carrying the CLI's policy-level switches. Drivers
/// with extra knobs (tmax_beta, offline split) start from this and override.
inline exp::SchemeFactoryOptions factory_options(const BenchOptions& options) {
  exp::SchemeFactoryOptions factory;
  factory.tmax_cache = options.tmax_cache;
  factory.request_pool = options.request_pool;
  factory.prune = options.prune;
  factory.sample_rate = options.sample_rate;
  factory.slo_target = options.slo_target;
  factory.burn_fast_ms = options.burn_fast_ms;
  factory.burn_slow_ms = options.burn_slow_ms;
  return factory;
}

inline void print_header(const std::string& title, const std::string& paper_claim) {
  std::cout << "=== " << title << " ===\n";
  std::cout << "Paper: " << paper_claim << "\n\n";
}

/// Observability side-channel of a bench driver: owns the streaming metrics
/// and decision-log writers and exports one Chrome trace file per completed
/// (scenario, scheme) run. All export happens on the calling thread, in call
/// order — parallel sweeps capture traces into per-run slots and serialize
/// them afterwards, keeping the files deterministic.
class RunObserver {
 public:
  RunObserver(const BenchOptions& options, std::string figure)
      : figure_(std::move(figure)),
        trace_out_(options.trace_out),
        report_out_(options.report_out),
        profile_(options.profile),
        metrics_(open_stream<obs::MetricsWriter>(options.metrics_out, "--metrics-out")),
        decisions_(open_stream<obs::DecisionLogWriter>(options.decisions_out,
                                                        "--decisions-out")),
        rollups_(open_stream<obs::RollupWriter>(options.rollup_out, "--rollup-out")),
        alerts_(open_stream<obs::AlertWriter>(options.alerts_out, "--alerts-out")) {}

  ~RunObserver() {
    if (report_out_.empty() || reports_.empty()) return;
    std::string error;
    if (!obs::write_report_json_file(report_out_, reports_, &error)) {
      std::fprintf(stderr, "warning: --report-out: %s\n", error.c_str());
    }
  }

  /// Any per-run observation stream enabled (Chrome trace, decision log,
  /// report, rollups, health alerts, or self-profile)?
  bool tracing() const {
    return capture_events() || rollups_ != nullptr || alerts_ != nullptr ||
           profile_;
  }

  /// Do the enabled streams need full lifecycle event capture? False for
  /// rollup/profile-only runs — the tracer slots stay unallocated, so
  /// memory stays bounded by the rollup cells alone.
  bool capture_events() const {
    return !trace_out_.empty() || !report_out_.empty() || decisions_ != nullptr;
  }

  /// A RunTrace configured for the enabled streams; pass to Runner::run.
  obs::RunTrace make_trace() const {
    obs::RunTrace trace;
    trace.capture_events = capture_events();
    trace.collect_rollups = rollups_ != nullptr;
    trace.profile = profile_;
    trace.collect_health = alerts_ != nullptr;
    return trace;
  }

  /// Run one (scenario, scheme): capture + export the trace when requested,
  /// stream the combined metrics row, return the full result.
  exp::RunResult run(const exp::Runner& runner, const exp::Scenario& scenario,
                     exp::SchemeId scheme, bool keep_cdf = false) {
    exp::RunResult result;
    if (tracing()) {
      obs::RunTrace trace = make_trace();
      result = runner.run(scenario, scheme, trace, keep_cdf);
      export_trace(trace, scenario.name, exp::scheme_name(scheme));
    } else {
      result = runner.run(scenario, scheme, keep_cdf);
    }
    record(result.combined);
    return result;
  }

  /// Stream one metrics row (drivers with hand-rolled sweeps call this).
  void record(const telemetry::RunMetrics& row) {
    write_stream(metrics_, "--metrics-out", row, figure_);
  }

  /// Export a captured trace: Chrome JSON to a path derived from the base
  /// (one file per scenario x scheme) plus the decision-log and rollup rows.
  void export_trace(const obs::RunTrace& trace, const std::string& scenario,
                    const std::string& scheme) {
    // Drivers that sweep the same scheme over several scenarios with one
    // name (e.g. fig04's two models, both "azure") would collide on the
    // derived path — uniquify repeats with a run counter. Exports happen
    // in call order even under --threads, so the numbering is stable.
    std::string tag = scenario;
    const int seen = ++trace_runs_[scenario + "\n" + scheme];
    if (seen > 1) tag += "-run" + std::to_string(seen);
    const std::string label = tag + " / " + scheme;
    {
      // Flush time lands in the rep-0 profiler (exports run on this thread,
      // after the reps finished) so the report's export_flush row covers the
      // trace, decision-log, and rollup writes.
      obs::ScopedPhase flush(
          trace.profiles.empty() ? nullptr : trace.profiles[0].get(),
          obs::ProfilePhase::kExportFlush);
      if (!trace_out_.empty()) {
        const std::string path = obs::derive_trace_path(trace_out_, tag, scheme);
        std::string error;
        if (!obs::write_chrome_trace_file(path, trace, label, &error)) {
          std::fprintf(stderr, "warning: --trace-out: %s\n", error.c_str());
        }
      }
      write_stream(decisions_, "--decisions-out", trace, scheme, scenario);
      write_stream(rollups_, "--rollup-out", trace, label);
      write_stream(alerts_, "--alerts-out", trace, label);
    }
    if (!report_out_.empty()) {
      // Same analysis paldia-analyze performs on the exported trace file;
      // extract_run_data's values are exactly what a reader parses from the
      // exporter's text (Quantize suite, tests/obs/report_test.cpp), so the
      // two reports come out byte-identical. The self-profile section rides
      // along only when --profile recorded something; the health section
      // only when --alerts-out ran a HealthEngine.
      obs::AnalysisReport report =
          obs::analyze_with_zoo(obs::extract_run_data(trace, label));
      report.profile = obs::summarize_profile(trace);
      report.health = obs::summarize_health(trace);
      reports_.push_back(std::move(report));
    }
    obs::warn_if_truncated(trace, figure_ + " " + label);
  }

 private:
  /// The writer for a stream flag, or nullptr when the flag is unset. A
  /// file that does not open is reported here; the writer then stays idle.
  template <typename Writer>
  static std::unique_ptr<Writer> open_stream(const std::string& path,
                                             const char* flag) {
    if (path.empty()) return nullptr;
    auto writer = std::make_unique<Writer>(path);
    if (!writer->ok()) {
      std::fprintf(stderr, "warning: %s: %s\n", flag, writer->error().c_str());
    }
    return writer;
  }

  /// One write() on an enabled, healthy stream. The write that fails is
  /// reported once; the writer writes nothing after it.
  template <typename Writer, typename... Args>
  static void write_stream(const std::unique_ptr<Writer>& writer, const char* flag,
                           const Args&... args) {
    if (writer == nullptr || !writer->ok()) return;
    writer->write(args...);
    if (!writer->ok()) {
      std::fprintf(stderr, "warning: %s: %s\n", flag, writer->error().c_str());
    }
  }

  std::string figure_;
  std::string trace_out_;
  std::string report_out_;
  bool profile_ = false;
  std::map<std::string, int> trace_runs_;
  std::vector<obs::AnalysisReport> reports_;
  std::unique_ptr<obs::MetricsWriter> metrics_;
  std::unique_ptr<obs::DecisionLogWriter> decisions_;
  std::unique_ptr<obs::RollupWriter> rollups_;
  std::unique_ptr<obs::AlertWriter> alerts_;
};

/// Runs the scenario for the given schemes and returns combined metrics in
/// the same order. With a pool, the (scheme x rep) grid runs concurrently:
/// schemes fan out here and Runner::run nests a parallel_for over reps —
/// results land in fixed slots, so rows match the serial order exactly.
inline std::vector<telemetry::RunMetrics> run_schemes(
    const exp::Runner& runner, const exp::Scenario& scenario,
    const std::vector<exp::SchemeId>& schemes, bool keep_cdf = false,
    ThreadPool* pool = nullptr) {
  std::vector<telemetry::RunMetrics> rows(schemes.size());
  auto run_one = [&](std::size_t i) {
    rows[i] = runner.run(scenario, schemes[i], keep_cdf).combined;
  };
  if (pool != nullptr && schemes.size() > 1) {
    pool->parallel_for(schemes.size(), run_one);
  } else {
    for (std::size_t i = 0; i < schemes.size(); ++i) run_one(i);
  }
  return rows;
}

/// Observer-aware run_schemes: traces are captured into per-scheme slots
/// while the grid runs (possibly in parallel) and exported afterwards in
/// scheme order, so the trace/metrics/decision files come out byte-identical
/// regardless of thread count.
inline std::vector<telemetry::RunMetrics> run_schemes(
    const exp::Runner& runner, const exp::Scenario& scenario,
    const std::vector<exp::SchemeId>& schemes, RunObserver& observer,
    bool keep_cdf = false, ThreadPool* pool = nullptr) {
  std::vector<telemetry::RunMetrics> rows(schemes.size());
  if (observer.tracing()) {
    std::vector<obs::RunTrace> traces;
    traces.reserve(schemes.size());
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      traces.push_back(observer.make_trace());
    }
    auto run_one = [&](std::size_t i) {
      rows[i] = runner.run(scenario, schemes[i], traces[i], keep_cdf).combined;
    };
    if (pool != nullptr && schemes.size() > 1) {
      pool->parallel_for(schemes.size(), run_one);
    } else {
      for (std::size_t i = 0; i < schemes.size(); ++i) run_one(i);
    }
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      observer.export_trace(traces[i], scenario.name,
                            exp::scheme_name(schemes[i]));
    }
  } else {
    rows = run_schemes(runner, scenario, schemes, keep_cdf, pool);
  }
  for (const auto& row : rows) observer.record(row);
  return rows;
}

inline std::string ms(double value) { return Table::num(value, 1) + " ms"; }
inline std::string dollars(double value) { return "$" + Table::num(value, 4); }

/// Dominant violation cause of a metrics row ("-" when compliant), for the
/// drivers' per-scheme attribution columns.
inline std::string top_violation_cause(const telemetry::RunMetrics& metrics) {
  if (metrics.slo_violations <= 0.0) return "-";
  std::size_t best = 0;
  for (std::size_t i = 1; i < metrics.violations_by_cause.size(); ++i) {
    if (metrics.violations_by_cause[i] > metrics.violations_by_cause[best]) best = i;
  }
  return std::string(telemetry::violation_cause_name(
      static_cast<telemetry::ViolationCause>(best)));
}

}  // namespace paldia::bench
