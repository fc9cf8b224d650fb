// End-to-end benchmark harness: runs one benchmark workload through the
// library's public entry points and prints one JSON line of results.
// perfbench/run.py drives it; see perfbench/README.md for the workloads.
//
//   perfbench_harness --workload=NAME [--mode=plain|traced|reference]
//                     [--poisson-seed=N] [--azure-seed=N] [--base-seed=N]
//                     [--out-dir=DIR] [--spans=FILE]
//
// Workloads:
//   fleet-poisson      core::Fleet: gen:256 catalog, 64 endpoints, Paldia,
//                      ~1.2M ResNet-50 Poisson arrivals over 300 s.
//   fleet-poisson-obs  the same run with the report (sampled 1-in-64),
//                      rollup, alert, decision-log and metrics streams on;
//                      the streams are written under --out-dir.
//   table2-azure       12 vision models x the 5 main schemes on the Table II
//                      catalog under the Azure trace: 60 single-cluster runs.
//
// Modes:
//   plain      the measured path. Only the set-up phases are timed.
//   traced     the same calls with a span around each, and every policy
//              wrapped in a TimedPolicy; spans go to --spans at exit.
//   reference  the bench programs' own path (exp::FleetSim::run or
//              exp::Runner::run_once) on the same inputs. It prints the row
//              digests the other modes must reproduce.
//
// Results are the simulated outcomes (Paldia's attainment, latency and
// cost), counts the layers expose, self-checks, and FNV-1a digests of every
// simulated RunMetrics row printed with all digits.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"
#include "src/common/histogram.hpp"
#include "src/core/fleet.hpp"
#include "src/exp/fleet_sim.hpp"
#include "src/exp/runner.hpp"
#include "src/hw/catalog_gen.hpp"
#include "src/obs/attribution.hpp"
#include "src/obs/calibration.hpp"
#include "src/obs/export.hpp"
#include "src/obs/health.hpp"
#include "src/obs/report.hpp"
#include "src/obs/rollup.hpp"
#include "src/trace/generators.hpp"

using namespace paldia;
using perfbench::Phase;
using perfbench::RunId;
using perfbench::SpanLog;
using perfbench::TimedPolicy;

namespace {

// fleet_sim's defaults.
constexpr const char* kFleetCatalog = "gen:256";
constexpr int kFleetEndpoints = 64;
constexpr double kFleetRequests = 1'200'000.0;
constexpr double kFleetDurationS = 300.0;
constexpr models::ModelId kFleetModel = models::ModelId::kResNet50;
// Same scenario name with and without streams, so the rows compare equal.
constexpr const char* kFleetScenario = "fleet-poisson";
constexpr std::uint32_t kObsSampleRate = 64;

struct Options {
  std::string workload;
  std::string mode = "plain";
  std::uint64_t poisson_seed = 4;
  std::uint64_t azure_seed = 1;
  std::uint64_t base_seed = 0x9a1d1a;
  std::string out_dir = ".";
  std::string spans;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", message.c_str());
  std::exit(2);
}

std::uint64_t parse_seed(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0') {
    usage_error(flag + " wants an unsigned integer, got '" + text + "'");
  }
  return value;
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--mode") {
      options.mode = value;
    } else if (flag == "--poisson-seed") {
      options.poisson_seed = parse_seed(flag, value);
    } else if (flag == "--azure-seed") {
      options.azure_seed = parse_seed(flag, value);
    } else if (flag == "--base-seed") {
      options.base_seed = parse_seed(flag, value);
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--spans") {
      options.spans = value;
    } else {
      usage_error("unknown argument '" + arg + "'");
    }
  }
  if (options.workload != "fleet-poisson" &&
      options.workload != "fleet-poisson-obs" &&
      options.workload != "table2-azure") {
    usage_error("--workload wants fleet-poisson|fleet-poisson-obs|table2-azure");
  }
  if (options.mode != "plain" && options.mode != "traced" &&
      options.mode != "reference") {
    usage_error("--mode wants plain|traced|reference");
  }
  if (options.mode == "traced" && options.spans.empty()) {
    usage_error("--mode=traced needs --spans=FILE");
  }
  return options;
}

std::string scheme_slug(exp::SchemeId scheme) {
  switch (scheme) {
    case exp::SchemeId::kPaldia: return "paldia";
    case exp::SchemeId::kInflessLlamaCost: return "infless-cost";
    case exp::SchemeId::kInflessLlamaPerf: return "infless-perf";
    case exp::SchemeId::kMoleculeCost: return "molecule-cost";
    case exp::SchemeId::kMoleculePerf: return "molecule-perf";
    default: return "other";
  }
}

/// FNV-1a over the text of the rows it is fed.
class Digest {
 public:
  void add(std::string_view text) {
    for (const char c : text) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ull;
    }
  }
  std::string hex() const {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buffer;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void append_number(std::string& text, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g,", value);
  text += buffer;
}

/// The serving columns of a row: everything the simulation decides, without
/// the calibration and sweep-cache columns that observability feeds.
std::string serving_text(const telemetry::RunMetrics& row) {
  std::string text = row.scheme + "," + row.workload + "," + row.trace + ",";
  for (const double value :
       {static_cast<double>(row.requests), row.slo_compliance,
        row.mean_latency_ms, row.p50_latency_ms, row.p95_latency_ms,
        row.p99_latency_ms, row.p99_breakdown.latency_ms,
        row.p99_breakdown.solo_ms, row.p99_breakdown.queue_ms,
        row.p99_breakdown.interference_ms, row.p99_breakdown.cold_start_ms,
        static_cast<double>(row.p99_breakdown.samples), row.cost,
        row.average_power, row.gpu_utilization, row.cpu_utilization,
        row.goodput_rps, row.offered_rps, static_cast<double>(row.cold_starts),
        row.slo_violations}) {
    append_number(text, value);
  }
  for (const double count : row.violations_by_cause) append_number(text, count);
  return text;
}

/// Every column of a row, all digits.
std::string row_text(const telemetry::RunMetrics& row) {
  std::string text = serving_text(row);
  for (const double value :
       {row.tmax_mape, row.tmax_coverage, row.rate_mape, row.calib_intervals,
        row.tmax_cache_hits, row.tmax_cache_misses, row.tmax_cache_hit_rate}) {
    append_number(text, value);
  }
  append_number(text, static_cast<double>(row.latency_cdf.size()));
  text += "\n";
  return text;
}

struct Digests {
  Digest rows;                              // every row of the workload
  std::map<std::string, Digest> by_scheme;  // scheme slug -> its rows
  std::string serving;                      // fleet row, serving columns

  void add(const std::string& scheme, const exp::RunResult& result) {
    for (const auto& row : result.per_workload) add_row(scheme, row);
    add_row(scheme, result.combined);
  }
  void add_row(const std::string& scheme, const telemetry::RunMetrics& row) {
    const std::string text = row_text(row);
    rows.add(text);
    by_scheme[scheme].add(text);
  }
  void add_fleet(const exp::FleetSimResult& result) {
    for (const auto& endpoint : result.per_endpoint) add("paldia", endpoint);
    add_row("paldia", result.combined);
    std::string totals;
    for (const double value :
         {static_cast<double>(result.total_requests),
          static_cast<double>(result.unserved),
          static_cast<double>(result.events_processed), result.end_ms}) {
      append_number(totals, value);
    }
    totals += "\n";
    rows.add(totals);
    by_scheme["paldia"].add(totals);
    Digest fleet_row;
    fleet_row.add(serving_text(result.combined));
    serving = fleet_row.hex();
  }
};

/// What one workload run produced, summed over its runs and schemes.
struct Outcome {
  std::uint64_t arrivals = 0;  // routed arrivals
  std::uint64_t completed = 0;
  std::uint64_t unserved = 0;
  std::uint64_t events = 0;
  std::uint64_t hardware_switches = 0;
  std::uint64_t cold_starts = 0;
  double tmax_cache_hits = 0.0;
  double tmax_cache_misses = 0.0;
  // Paldia's requests only.
  Histogram paldia_latency;
  std::uint64_t paldia_routed = 0;
  std::uint64_t paldia_compliant = 0;
  double paldia_cost = 0.0;
  // fleet-poisson-obs only.
  std::map<std::string, std::uint64_t> stream_bytes;
  std::uint64_t tracer_dropped = 0;

  Digests digests;
  std::vector<std::string> failures;
};

/// Request conservation on one serving loop (a fleet endpoint or a cluster
/// run); also adds the loop's counts to the outcome.
void check_loop(Outcome& out, const std::string& where,
                const core::Framework& framework,
                const std::vector<models::ModelId>& workload_models,
                std::uint64_t routed) {
  std::uint64_t served = 0;
  for (const auto model : workload_models) {
    served += framework.latency(model).count();
  }
  if (served + framework.unserved_requests() != routed) {
    out.failures.push_back(where + ": routed " + std::to_string(routed) +
                           " != completed " + std::to_string(served) +
                           " + unserved " +
                           std::to_string(framework.unserved_requests()));
  }
  out.completed += served;
  out.unserved += framework.unserved_requests();
  out.arrivals += routed;
  out.hardware_switches += static_cast<std::uint64_t>(framework.hardware_switches());
}

void check_causes(Outcome& out, const std::string& where,
                  const telemetry::RunMetrics& row) {
  double sum = 0.0;
  for (const double count : row.violations_by_cause) sum += count;
  if (sum != row.slo_violations) {
    out.failures.push_back(where + ": violation causes sum to " +
                           std::to_string(sum) + ", total is " +
                           std::to_string(row.slo_violations));
  }
}

obs::CalibrationTracker::Config calibration_config(const models::Zoo& zoo,
                                                   const exp::Scenario& scenario) {
  obs::CalibrationTracker::Config config;
  config.slo_ms = kTimeNever;
  for (const auto& workload : scenario.workloads) {
    config.slo_ms = std::min(config.slo_ms, zoo.spec(workload.model).slo_ms);
  }
  return config;
}

// ---------------------------------------------------------------------------
// Fleet workloads

/// The RunTrace fleet_sim builds for --report-out --sample-rate=64
/// --rollup-out --alerts-out --decisions-out (no Chrome trace, no profile).
obs::RunTrace stream_trace() {
  obs::RunTrace trace;
  trace.capture_events = true;
  trace.collect_rollups = true;
  trace.profile = false;
  trace.collect_health = true;
  return trace;
}

exp::SchemeFactoryOptions fleet_factory_options(bool streams) {
  exp::SchemeFactoryOptions options;
  if (streams) options.sample_rate = kObsSampleRate;
  return options;
}

exp::Scenario fleet_scenario(const Options& options, SpanLog& log) {
  Phase phase(log, "trace.generate",
              {-1, "", std::string(models::model_id_name(kFleetModel))}, true);
  exp::Scenario scenario;
  scenario.name = kFleetScenario;
  scenario.base_seed = options.base_seed;
  trace::PoissonOptions poisson;
  poisson.duration_ms = kFleetDurationS * 1000.0;
  poisson.mean_rps = kFleetRequests / kFleetDurationS;
  poisson.seed = options.poisson_seed;
  scenario.workloads.push_back(
      exp::WorkloadSpec{kFleetModel, trace::make_poisson_trace(poisson)});
  return scenario;
}

hw::Catalog fleet_catalog(SpanLog& log) {
  Phase phase(log, "hw.catalog", {}, true);
  std::string error;
  const auto spec = hw::parse_catalog_spec(kFleetCatalog, &error);
  if (!spec.has_value()) usage_error("bad catalog spec: " + error);
  return hw::generate_catalog(*spec);
}

void fleet_reference(const Options& options, bool streams, Outcome& out) {
  SpanLog log(false);
  const hw::Catalog catalog = fleet_catalog(log);
  const exp::Scenario scenario = fleet_scenario(options, log);
  const exp::FleetSim fleet_sim(models::Zoo::instance(), catalog, nullptr,
                                fleet_factory_options(streams));
  exp::FleetSimResult result;
  if (streams) {
    obs::RunTrace trace = stream_trace();
    result = fleet_sim.run(scenario, exp::SchemeId::kPaldia, kFleetEndpoints,
                           &trace);
  } else {
    result = fleet_sim.run(scenario, exp::SchemeId::kPaldia, kFleetEndpoints);
  }
  out.digests.add_fleet(result);
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  return error ? 0 : static_cast<std::uint64_t>(size);
}

/// The stream exports of bench::RunObserver for one fleet run, each timed.
void export_streams(const Options& options, SpanLog& log, const obs::RunTrace& trace,
                    const exp::FleetSimResult& result, Outcome& out) {
  const std::string scheme = exp::scheme_name(exp::SchemeId::kPaldia);
  const std::string label = std::string(kFleetScenario) + " / " + scheme;
  const std::string dir = options.out_dir + "/";
  auto check = [&out](const auto& writer, const char* stream) {
    if (!writer.ok()) {
      out.failures.push_back(std::string(stream) + " export: " + writer.error());
    }
  };
  {
    Phase phase(log, "obs.export.decisions");
    obs::DecisionLogWriter writer(dir + "decisions.jsonl");
    writer.write(trace, scheme, kFleetScenario);
    check(writer, "decisions");
  }
  {
    Phase phase(log, "obs.export.rollup");
    obs::RollupWriter writer(dir + "rollup.jsonl");
    writer.write(trace, label);
    check(writer, "rollup");
  }
  {
    Phase phase(log, "obs.export.alerts");
    obs::AlertWriter writer(dir + "alerts.jsonl");
    writer.write(trace, label);
    check(writer, "alerts");
  }
  obs::RunData data;
  {
    Phase phase(log, "obs.report_extract");
    data = obs::extract_run_data(trace, label);
  }
  std::vector<obs::AnalysisReport> reports(1);
  {
    Phase phase(log, "obs.report_analyze");
    reports[0] = obs::analyze_with_zoo(data);
    reports[0].profile = obs::summarize_profile(trace);
    reports[0].health = obs::summarize_health(trace);
  }
  {
    Phase phase(log, "obs.export.report");
    std::string error;
    if (!obs::write_report_json_file(dir + "report.json", reports, &error)) {
      out.failures.push_back("report export: " + error);
    }
  }
  {
    Phase phase(log, "obs.export.metrics");
    obs::MetricsWriter writer(dir + "metrics.jsonl");
    for (const auto& endpoint : result.per_endpoint) {
      writer.write(endpoint.combined, "fleet_sim");
    }
    writer.write(result.combined, "fleet_sim");
    check(writer, "metrics");
  }
  for (const char* stream : {"decisions", "rollup", "alerts", "metrics"}) {
    out.stream_bytes[stream] = file_bytes(dir + stream + ".jsonl");
  }
  out.stream_bytes["report"] = file_bytes(dir + "report.json");
  out.tracer_dropped = trace.dropped_events() + trace.dropped_decisions();
  obs::warn_if_truncated(trace, "perfbench " + label);
}

/// exp::FleetSim::run's body, split at the layer calls so each can be
/// timed; the rows must match FleetSim::run's (the reference mode).
void fleet_harness(const Options& options, bool streams, SpanLog& log,
                   Outcome& out) {
  std::optional<Phase> teardown;  // emplaced last: times the destructors
  const auto& zoo = models::Zoo::instance();
  const hw::Catalog catalog = fleet_catalog(log);
  const exp::Scenario scenario = fleet_scenario(options, log);
  const exp::SchemeFactoryOptions factory_options = fleet_factory_options(streams);
  const auto scheme = exp::SchemeId::kPaldia;
  const auto slots = static_cast<std::size_t>(kFleetEndpoints);
  const std::string model_name(models::model_id_name(kFleetModel));

  obs::RunTrace trace = stream_trace();
  std::vector<std::unique_ptr<obs::AttributionEngine>> attributions;
  std::vector<std::unique_ptr<obs::CalibrationTracker>> calibrations;
  std::vector<TimedPolicy*> policies;
  std::optional<sim::Simulator> simulator;
  std::optional<core::Fleet> fleet;
  {
    Phase phase(log, "core.build", {}, true);
    simulator.emplace(sim::ShardOptions{});
    Rng rng(scenario.base_seed);
    if (streams) {
      trace.config.sample_rate = factory_options.sample_rate;
      trace.health_config.slo_target = factory_options.slo_target;
      trace.health_config.fast_window_ms = factory_options.burn_fast_ms;
      trace.health_config.slow_window_ms = factory_options.burn_slow_ms;
      for (std::size_t e = 0; e < slots; ++e) {
        trace.reps.push_back(std::make_unique<obs::Tracer>(trace.config));
        trace.rollups.push_back(
            std::make_unique<obs::RollupAggregator>(trace.rollup_config));
        trace.healths.push_back(
            std::make_unique<obs::HealthEngine>(trace.health_config));
      }
    }
    const auto calibration = calibration_config(zoo, scenario);
    for (std::size_t e = 0; e < slots; ++e) {
      attributions.push_back(std::make_unique<obs::AttributionEngine>(zoo));
      calibrations.push_back(std::make_unique<obs::CalibrationTracker>(calibration));
    }
    core::FleetConfig fleet_config;
    fleet_config.endpoints = kFleetEndpoints;
    fleet_config.route_seed = scenario.base_seed;
    fleet_config.framework = scenario.framework;
    fleet_config.framework.request_pool = factory_options.request_pool;
    fleet.emplace(
        *simulator, rng.fork("fleet"), zoo, catalog, fleet_config,
        [&](int e, const hw::Catalog& slice, const models::ProfileTable& profile)
            -> std::unique_ptr<core::SchedulerPolicy> {
          exp::SchemeFactory factory(zoo, slice, profile, nullptr, factory_options);
          auto policy = factory.make(scheme);
          if (!log.tracing()) return policy;
          auto timed = std::make_unique<TimedPolicy>(
              std::move(policy), slice,
              streams ? trace.reps[static_cast<std::size_t>(e)].get() : nullptr,
              RunId{e, scheme_slug(scheme), model_name});
          policies.push_back(timed.get());
          return timed;
        },
        [&](int e, const hw::Catalog&, core::FrameworkConfig& config) {
          const auto slot = static_cast<std::size_t>(e);
          config.attribution = attributions[slot].get();
          config.calibration = calibrations[slot].get();
          if (streams) {
            config.tracer = trace.reps[slot].get();
            config.rollup = trace.rollups[slot].get();
            config.health = trace.healths[slot].get();
          }
        });
  }
  auto flush_policies = [&] {
    for (auto* policy : policies) policy->flush(log);
  };
  {
    Phase phase(log, "core.route", {}, true);
    for (const auto& workload : scenario.workloads) {
      fleet->add_workload(workload.model, workload.trace);
    }
  }
  for (int e = 0; e < kFleetEndpoints; ++e) {
    Phase phase(log, "core.arm", {e, scheme_slug(scheme), model_name}, true);
    fleet->framework(e).begin_run();
    flush_policies();
  }
  TimeMs end = 0.0;
  {
    Phase phase(log, "sim.drain");
    end = simulator->run_until(fleet->hard_end());
    flush_policies();
  }
  for (int e = 0; e < kFleetEndpoints; ++e) {
    Phase phase(log, "core.finish", {e, scheme_slug(scheme), model_name});
    fleet->framework(e).finish_run(end);
    flush_policies();
  }

  exp::FleetSimResult result;
  result.end_ms = end;
  result.endpoints = kFleetEndpoints;
  result.nodes = static_cast<int>(catalog.size());
  result.total_requests = fleet->total_requests();
  result.events_processed = simulator->events_processed();
  const std::vector<models::ModelId> workload_models = {kFleetModel};
  Histogram merged_e2e;
  std::uint64_t total_completed = 0, total_compliant = 0;
  double total_violations = 0.0;
  std::array<double, telemetry::kViolationCauseCount> causes{};
  double cost = 0.0, power = 0.0, gpu_util = 0.0, cpu_util = 0.0;
  std::uint64_t cold_starts = 0;
  for (int e = 0; e < kFleetEndpoints; ++e) {
    {
      Phase phase(log, "exp.extract", {e, scheme_slug(scheme), model_name});
      exp::ExtractOptions extract;
      extract.scheme = exp::scheme_name(scheme);
      extract.trace_label = scenario.name + "-e" + std::to_string(e);
      extract.goodput_window_ms = scenario.goodput_window_ms;
      result.per_endpoint.push_back(exp::extract_run_metrics(
          fleet->framework(e), fleet->cluster(e), workload_models,
          calibrations[static_cast<std::size_t>(e)].get(), extract));
    }
    Phase phase(log, "exp.extract", {e, scheme_slug(scheme), "fleet-merge"});
    auto& framework = fleet->framework(e);
    result.unserved += framework.unserved_requests();
    for (const auto model : workload_models) {
      merged_e2e.merge(framework.latency(model).e2e());
      total_completed += framework.slo(model).total();
      total_compliant += framework.slo(model).compliant();
    }
    const auto& combined = result.per_endpoint.back().combined;
    total_violations += combined.slo_violations;
    for (std::size_t cause = 0; cause < causes.size(); ++cause) {
      causes[cause] += combined.violations_by_cause[cause];
    }
    cost += combined.cost;
    power += combined.average_power;
    gpu_util += combined.gpu_utilization;
    cpu_util += combined.cpu_utilization;
    cold_starts += combined.cold_starts;
  }
  {
    Phase phase(log, "exp.extract", {-1, scheme_slug(scheme), "fleet-merge"});
    telemetry::RunMetrics& fleet_row = result.combined;
    fleet_row.scheme = exp::scheme_name(scheme);
    fleet_row.workload = "fleet";
    fleet_row.trace = scenario.name + "-fleet";
    fleet_row.requests = total_completed;
    fleet_row.slo_compliance =
        total_completed == 0 ? 1.0
                             : static_cast<double>(total_compliant) /
                                   static_cast<double>(total_completed);
    fleet_row.mean_latency_ms = merged_e2e.mean();
    const double merged_qs[] = {0.5, 0.95, 0.99};
    const auto merged_percentiles = merged_e2e.quantiles(merged_qs);
    fleet_row.p50_latency_ms = merged_percentiles[0];
    fleet_row.p95_latency_ms = merged_percentiles[1];
    fleet_row.p99_latency_ms = merged_percentiles[2];
    fleet_row.slo_violations = total_violations;
    fleet_row.violations_by_cause = causes;
    fleet_row.cost = cost;
    fleet_row.cold_starts = cold_starts;
    fleet_row.average_power = power;
    fleet_row.gpu_utilization = gpu_util / kFleetEndpoints;
    fleet_row.cpu_utilization = cpu_util / kFleetEndpoints;
  }

  if (streams) export_streams(options, log, trace, result, out);

  {
    Phase phase(log, "bench.check");
    for (int e = 0; e < kFleetEndpoints; ++e) {
      const auto& endpoint = result.per_endpoint[static_cast<std::size_t>(e)];
      const std::string where = "endpoint " + std::to_string(e);
      check_loop(out, where, fleet->framework(e), workload_models,
                 fleet->endpoint_requests(e));
      for (const auto& row : endpoint.per_workload) check_causes(out, where, row);
      check_causes(out, where, endpoint.combined);
    }
    check_causes(out, "fleet row", result.combined);
    out.events = result.events_processed;
    out.cold_starts = result.combined.cold_starts;
    for (const auto& endpoint : result.per_endpoint) {
      out.tmax_cache_hits += endpoint.combined.tmax_cache_hits;
      out.tmax_cache_misses += endpoint.combined.tmax_cache_misses;
    }
    out.paldia_latency = merged_e2e;
    out.paldia_routed = result.total_requests;
    out.paldia_compliant = total_compliant;
    out.paldia_cost = result.combined.cost;
    out.digests.add_fleet(result);
  }
  teardown.emplace(log, "core.teardown");
}

// ---------------------------------------------------------------------------
// table2-azure

/// exp::azure_scenario with the benchmark's seeds: one repetition, as
/// fig03 runs at --reps=1.
exp::Scenario azure_scenario(const Options& options, models::ModelId model,
                             SpanLog& log) {
  Phase phase(log, "trace.generate",
              {-1, "", std::string(models::model_id_name(model))}, true);
  exp::Scenario scenario;
  scenario.name = "azure";
  scenario.base_seed = options.base_seed;
  scenario.repetitions = 1;
  trace::AzureOptions azure;
  azure.peak_rps = exp::paper_peak_rps(model);
  azure.seed = options.azure_seed;
  scenario.workloads.push_back(
      exp::WorkloadSpec{model, trace::make_azure_trace(azure)});
  return scenario;
}

/// Runner::run's seed for repetition 0.
std::uint64_t run_seed(const exp::Scenario& scenario, exp::SchemeId scheme) {
  return scenario.base_seed + 0x9e3779b9ull +
         static_cast<std::uint64_t>(scheme) * 0x51ull;
}

void table2_reference(const Options& options, Outcome& out) {
  SpanLog log(false);
  const auto& zoo = models::Zoo::instance();
  const exp::Runner runner(zoo, hw::Catalog::instance());
  for (const auto model : zoo.vision_models()) {
    const exp::Scenario scenario = azure_scenario(options, model, log);
    for (const auto scheme : exp::main_schemes()) {
      out.digests.add(scheme_slug(scheme),
                      runner.run_once(scenario, scheme, run_seed(scenario, scheme)));
    }
  }
}

/// One single-cluster run: Runner::run_once's body, split at the layer
/// calls.
void table2_run(const models::Zoo& zoo, const hw::Catalog& catalog,
                const exp::SchemeFactory& factory, const exp::Scenario& scenario,
                exp::SchemeId scheme, SpanLog& log, Outcome& out) {
  const auto model = scenario.workloads.front().model;
  const RunId who{-1, scheme_slug(scheme), std::string(models::model_id_name(model))};
  std::optional<Phase> teardown;  // emplaced last: times the destructors
  std::unique_ptr<sim::Simulator> simulator;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<obs::AttributionEngine> attribution;
  std::unique_ptr<obs::CalibrationTracker> calibration;
  std::unique_ptr<core::Framework> framework;
  TimedPolicy* timed = nullptr;
  {
    Phase phase(log, "core.build", who, true);
    simulator = std::make_unique<sim::Simulator>(sim::ShardOptions{});
    const Rng rng(run_seed(scenario, scheme));
    cluster = std::make_unique<cluster::Cluster>(*simulator, rng.fork("cluster"),
                                                 zoo, catalog);
    auto policy = factory.make(scheme);
    if (log.tracing()) {
      auto wrapped =
          std::make_unique<TimedPolicy>(std::move(policy), catalog, nullptr, who);
      timed = wrapped.get();
      policy = std::move(wrapped);
    }
    core::FrameworkConfig config = scenario.framework;
    if (!config.initial_node.has_value()) {
      config.initial_node = factory.initial_node(scheme);
    }
    config.request_pool = factory.options().request_pool;
    attribution = std::make_unique<obs::AttributionEngine>(zoo);
    calibration = std::make_unique<obs::CalibrationTracker>(
        calibration_config(zoo, scenario));
    config.attribution = attribution.get();
    config.calibration = calibration.get();
    framework = std::make_unique<core::Framework>(
        *simulator, *cluster, std::move(policy), rng.fork("framework"), zoo, config);
  }
  auto flush_policy = [&] {
    if (timed != nullptr) timed->flush(log);
  };
  {
    Phase phase(log, "core.route", who, true);
    for (const auto& workload : scenario.workloads) {
      framework->add_workload(workload.model, workload.trace);
    }
  }
  {
    Phase phase(log, "core.arm", who, true);
    framework->begin_run();
    flush_policy();
  }
  TimeMs end = 0.0;
  {
    Phase phase(log, "sim.drain", who);
    end = simulator->run_until(framework->hard_end());
    flush_policy();
  }
  {
    Phase phase(log, "core.finish", who);
    framework->finish_run(end);
    flush_policy();
  }
  exp::RunResult result;
  {
    Phase phase(log, "exp.extract", who);
    exp::ExtractOptions extract;
    extract.scheme = exp::scheme_name(scheme);
    extract.trace_label = scenario.name;
    extract.goodput_window_ms = scenario.goodput_window_ms;
    result = exp::extract_run_metrics(*framework, *cluster, {model},
                                      calibration.get(), extract);
  }
  {
    Phase phase(log, "bench.check", who);
    const std::string where = who.scheme + "/" + who.model;
    check_loop(out, where, *framework, {model},
               scenario.workloads.front().trace.total_requests());
    for (const auto& row : result.per_workload) check_causes(out, where, row);
    check_causes(out, where, result.combined);
    out.events += simulator->events_processed();
    out.cold_starts += result.combined.cold_starts;
    out.tmax_cache_hits += result.combined.tmax_cache_hits;
    out.tmax_cache_misses += result.combined.tmax_cache_misses;
    if (scheme == exp::SchemeId::kPaldia) {
      out.paldia_latency.merge(framework->latency(model).e2e());
      out.paldia_routed += framework->slo(model).total();
      out.paldia_compliant += framework->slo(model).compliant();
      out.paldia_cost += result.combined.cost;
    }
    out.digests.add(who.scheme, result);
  }
  teardown.emplace(log, "core.teardown", who);
}

void table2_harness(const Options& options, SpanLog& log, Outcome& out) {
  const auto& zoo = models::Zoo::instance();
  const hw::Catalog* catalog = nullptr;
  {
    Phase phase(log, "hw.catalog", {}, true);
    catalog = &hw::Catalog::instance();
  }
  std::vector<exp::Scenario> scenarios;
  for (const auto model : zoo.vision_models()) {
    scenarios.push_back(azure_scenario(options, model, log));
  }
  std::optional<models::ProfileTable> profile;
  std::optional<exp::SchemeFactory> factory;
  {
    Phase phase(log, "core.build", {}, true);
    profile.emplace(*catalog);
    factory.emplace(zoo, *catalog, *profile);
  }
  for (const auto& scenario : scenarios) {
    for (const auto scheme : exp::main_schemes()) {
      table2_run(zoo, *catalog, *factory, scenario, scheme, log, out);
    }
  }
}

// ---------------------------------------------------------------------------
// Output

/// Histogram::quantile, but interpolated linearly inside the q-th sample's
/// bucket when that bucket is one of the 0.25 ms buckets below 512 ms. The
/// median latency sits there, and seeds whose medians share a bucket then
/// still read differently. Log-spaced buckets keep their representative.
double interpolated_quantile(const Histogram& latency, double q) {
  const double target = q * static_cast<double>(latency.count());
  double below = 0.0;
  for (const auto& [value, count] : latency.nonzero_buckets()) {
    const double through = below + static_cast<double>(count);
    if (through >= target) {
      if (value >= Histogram::kLinearLimitMs) break;
      return value - Histogram::kLinearBucketMs / 2 +
             Histogram::kLinearBucketMs * (target - below) /
                 static_cast<double>(count);
    }
    below = through;
  }
  return latency.quantile(q);
}

std::string json_string(const std::string& text) {
  std::string quoted = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  return quoted + "\"";
}

void print_result(const Options& options, const Outcome& out, const SpanLog& log,
                  double spans_write_s) {
  std::string json = "{\"workload\":" + json_string(options.workload) +
                     ",\"mode\":" + json_string(options.mode);
  char buffer[160];
  auto field = [&](const char* key, double value) {
    std::snprintf(buffer, sizeof buffer, ",\"%s\":%.17g", key, value);
    json += buffer;
  };
  auto count = [&](const char* key, std::uint64_t value) {
    std::snprintf(buffer, sizeof buffer, ",\"%s\":%llu", key,
                  static_cast<unsigned long long>(value));
    json += buffer;
  };
  json += ",\"compiler\":" + json_string(PERFBENCH_COMPILER) +
          ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE);
  count("poisson_seed", options.poisson_seed);
  count("azure_seed", options.azure_seed);
  count("base_seed", options.base_seed);
  field("spans_write_s", spans_write_s);
  field("setup_s", static_cast<double>(log.setup_ns()) * 1e-9);
  count("arrivals", out.arrivals);
  count("completed", out.completed);
  count("unserved", out.unserved);
  count("events", out.events);
  count("hardware_switches", out.hardware_switches);
  count("cold_starts", out.cold_starts);
  field("tmax_cache_hits", out.tmax_cache_hits);
  field("tmax_cache_misses", out.tmax_cache_misses);
  count("paldia_routed", out.paldia_routed);
  count("paldia_compliant", out.paldia_compliant);
  field("paldia_cost_usd", out.paldia_cost);
  const Histogram& latency = out.paldia_latency;
  if (latency.count() > 0) {
    const double p99 = latency.quantile(0.99);
    field("sim_p50_ms", interpolated_quantile(latency, 0.5));
    field("sim_p99_ms", interpolated_quantile(latency, 0.99));
    const auto at_or_below = static_cast<std::uint64_t>(
        latency.fraction_at_or_below(p99) * static_cast<double>(latency.count()));
    count("latency_samples", latency.count());
    count("samples_beyond_p99", latency.count() - std::min(latency.count(), at_or_below));
  }
  count("tracer_dropped", out.tracer_dropped);
  json += ",\"stream_bytes\":{";
  bool first = true;
  for (const auto& [stream, bytes] : out.stream_bytes) {
    json += (first ? "" : ",") + json_string(stream) + ":" + std::to_string(bytes);
    first = false;
  }
  json += "},\"rows_digest\":" + json_string(out.digests.rows.hex()) +
          ",\"serving_digest\":" + json_string(out.digests.serving) +
          ",\"scheme_digests\":{";
  first = true;
  for (const auto& [scheme, digest] : out.digests.by_scheme) {
    json += (first ? "" : ",") + json_string(scheme) + ":" + json_string(digest.hex());
    first = false;
  }
  json += "},\"failures\":[";
  first = true;
  for (const auto& failure : out.failures) {
    json += (first ? "" : ",") + json_string(failure);
    first = false;
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  const bool streams = options.workload == "fleet-poisson-obs";
  SpanLog log(options.mode == "traced");
  Outcome out;
  if (options.mode == "reference") {
    if (options.workload == "table2-azure") {
      table2_reference(options, out);
    } else {
      fleet_reference(options, streams, out);
    }
  } else if (options.workload == "table2-azure") {
    table2_harness(options, log, out);
  } else {
    fleet_harness(options, streams, log, out);
  }
  // Writing the spans is tracing cost; its time is reported separately
  // because it cannot be a span in the file it writes.
  const std::int64_t write_start_ns = perfbench::now_ns();
  if (log.tracing() && !log.write(options.spans)) {
    std::fprintf(stderr, "perfbench_harness: cannot write %s\n",
                 options.spans.c_str());
    return 1;
  }
  print_result(options, out, log,
               static_cast<double>(perfbench::now_ns() - write_start_ns) * 1e-9);
  return 0;
}
