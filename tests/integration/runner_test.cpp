#include "src/exp/runner.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "src/exp/summary.hpp"
#include "src/obs/export.hpp"
#include "src/obs/rollup.hpp"
#include "src/trace/generators.hpp"

namespace paldia::exp {
namespace {

Scenario short_scenario(models::ModelId model, Rps rate, DurationMs duration,
                        int repetitions = 1) {
  Scenario scenario;
  scenario.name = "short";
  trace::PoissonOptions options;
  options.mean_rps = rate;
  options.duration_ms = duration;
  scenario.workloads.push_back(
      WorkloadSpec{model, trace::make_poisson_trace(options)});
  scenario.repetitions = repetitions;
  return scenario;
}

TEST(Runner, ProducesCompleteMetrics) {
  Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  const auto scenario = short_scenario(models::ModelId::kResNet50, 30.0, seconds(40));
  const auto result = runner.run_once(scenario, SchemeId::kPaldia, 42);
  ASSERT_EQ(result.per_workload.size(), 1u);
  const auto& metrics = result.combined;
  EXPECT_EQ(metrics.scheme, "Paldia");
  EXPECT_GT(metrics.requests, 0u);
  EXPECT_GT(metrics.slo_compliance, 0.5);
  EXPECT_GT(metrics.cost, 0.0);
  EXPECT_GT(metrics.average_power, 0.0);
  EXPECT_GT(metrics.p99_latency_ms, 0.0);
}

TEST(Runner, ChargesWorkInFlightAtTheDrainCapAsUnserved) {
  // Far above the initial CPU node's capacity, with a drain cap of a few
  // hundred ms: the run ends with batches still on the node. They count as
  // unserved like the gateway's leftovers, and the teardown must not
  // release their request blocks into a destroyed arena.
  Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  auto scenario = short_scenario(models::ModelId::kResNet50, 1000.0, seconds(4));
  scenario.framework.max_drain_ms = 300.0;
  obs::RollupAggregator rollup;
  const auto result =
      runner.run_once(scenario, SchemeId::kPaldia, 3, false, nullptr, &rollup);
  std::uint64_t unserved = 0;
  for (const auto& [key, cell] : rollup.cells()) unserved += cell.unserved;
  EXPECT_EQ(rollup.completions() + unserved,
            scenario.workloads.front().trace.total_requests());
  EXPECT_GT(unserved, 0u);
  EXPECT_EQ(result.combined.violations_by_cause[static_cast<std::size_t>(
                telemetry::ViolationCause::kUnserved)],
            static_cast<double>(unserved));
}

TEST(Runner, DeterministicForSameSeed) {
  Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  const auto scenario = short_scenario(models::ModelId::kSeNet18, 40.0, seconds(30));
  const auto a = runner.run_once(scenario, SchemeId::kMoleculeCost, 7);
  const auto b = runner.run_once(scenario, SchemeId::kMoleculeCost, 7);
  EXPECT_EQ(a.combined.slo_compliance, b.combined.slo_compliance);
  EXPECT_EQ(a.combined.p99_latency_ms, b.combined.p99_latency_ms);
  EXPECT_EQ(a.combined.cost, b.combined.cost);
}

TEST(Runner, PerformanceVariantsUseV100AndCostMore) {
  Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  const auto scenario = short_scenario(models::ModelId::kResNet50, 30.0, seconds(40));
  const auto perf = runner.run_once(scenario, SchemeId::kInflessLlamaPerf, 42);
  const auto cost = runner.run_once(scenario, SchemeId::kInflessLlamaCost, 42);
  EXPECT_GT(perf.combined.cost, cost.combined.cost * 2.0);
  EXPECT_GE(perf.combined.slo_compliance, 0.99);
}

TEST(Runner, KeepCdfPopulatesSeries) {
  Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  const auto scenario = short_scenario(models::ModelId::kResNet50, 20.0, seconds(20));
  const auto result = runner.run_once(scenario, SchemeId::kPaldia, 1, true);
  EXPECT_FALSE(result.per_workload[0].latency_cdf.empty());
}

TEST(Runner, AggregationAcrossRepetitions) {
  Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  auto scenario = short_scenario(models::ModelId::kResNet50, 25.0, seconds(20), 3);
  const auto result = runner.run(scenario, SchemeId::kPaldia);
  EXPECT_GT(result.combined.slo_compliance, 0.5);
  EXPECT_LE(result.combined.slo_compliance, 1.0);
}

TEST(Runner, ParallelRepetitionsBitIdenticalToSerial) {
  // The pool must only change wall-clock time: each repetition derives its
  // seed independently of execution order and lands in a fixed slot, so the
  // aggregated metrics are bit-for-bit those of the serial runner.
  ThreadPool pool(4);
  Runner serial(models::Zoo::instance(), hw::Catalog::instance());
  Runner parallel(models::Zoo::instance(), hw::Catalog::instance(), &pool);
  auto scenario = short_scenario(models::ModelId::kResNet50, 25.0, seconds(20), 8);
  for (SchemeId scheme : {SchemeId::kPaldia, SchemeId::kMoleculeCost}) {
    const auto a = serial.run(scenario, scheme);
    const auto b = parallel.run(scenario, scheme);
    EXPECT_EQ(a.combined.requests, b.combined.requests);
    EXPECT_EQ(a.combined.slo_compliance, b.combined.slo_compliance);
    EXPECT_EQ(a.combined.p50_latency_ms, b.combined.p50_latency_ms);
    EXPECT_EQ(a.combined.p95_latency_ms, b.combined.p95_latency_ms);
    EXPECT_EQ(a.combined.p99_latency_ms, b.combined.p99_latency_ms);
    EXPECT_EQ(a.combined.cost, b.combined.cost);
    EXPECT_EQ(a.combined.average_power, b.combined.average_power);
    ASSERT_EQ(a.per_workload.size(), b.per_workload.size());
    for (std::size_t w = 0; w < a.per_workload.size(); ++w) {
      EXPECT_EQ(a.per_workload[w].p99_latency_ms, b.per_workload[w].p99_latency_ms);
      EXPECT_EQ(a.per_workload[w].slo_compliance, b.per_workload[w].slo_compliance);
    }
  }
}

TEST(Runner, ParallelKeepCdfStillPopulatesFirstRep) {
  ThreadPool pool(4);
  Runner runner(models::Zoo::instance(), hw::Catalog::instance(), &pool);
  auto scenario = short_scenario(models::ModelId::kResNet50, 20.0, seconds(20), 4);
  const auto result = runner.run(scenario, SchemeId::kPaldia, /*keep_cdf=*/true);
  ASSERT_EQ(result.per_workload.size(), 1u);
  EXPECT_FALSE(result.per_workload[0].latency_cdf.empty());
}

TEST(Runner, PooledVsBypassBitIdentical) {
  // The request arena only changes where request buffers live, never what
  // they contain, so every metric must be bit-identical with pooling
  // bypassed. Failures are enabled so the requeue path (the one place
  // blocks travel backwards through the pipeline) is exercised too.
  ThreadPool pool(8);
  SchemeFactoryOptions pooled_options;
  SchemeFactoryOptions bypass_options;
  bypass_options.request_pool = false;
  Runner pooled(models::Zoo::instance(), hw::Catalog::instance(), &pool,
                pooled_options);
  Runner bypass(models::Zoo::instance(), hw::Catalog::instance(), &pool,
                bypass_options);
  auto scenario = short_scenario(models::ModelId::kResNet50, 60.0, seconds(30), 2);
  scenario.failures = cluster::FailureInjectorConfig{
      .period_ms = seconds(12), .downtime_ms = seconds(4),
      .first_failure_ms = seconds(6)};
  for (SchemeId scheme : {SchemeId::kPaldia, SchemeId::kOracle}) {
    const auto a = pooled.run(scenario, scheme);
    const auto b = bypass.run(scenario, scheme);
    EXPECT_EQ(a.combined.requests, b.combined.requests) << scheme_name(scheme);
    EXPECT_EQ(a.combined.slo_compliance, b.combined.slo_compliance);
    EXPECT_EQ(a.combined.mean_latency_ms, b.combined.mean_latency_ms);
    EXPECT_EQ(a.combined.p50_latency_ms, b.combined.p50_latency_ms);
    EXPECT_EQ(a.combined.p95_latency_ms, b.combined.p95_latency_ms);
    EXPECT_EQ(a.combined.p99_latency_ms, b.combined.p99_latency_ms);
    EXPECT_EQ(a.combined.cost, b.combined.cost);
    EXPECT_EQ(a.combined.average_power, b.combined.average_power);
    EXPECT_EQ(a.combined.cold_starts, b.combined.cold_starts);
    EXPECT_EQ(a.combined.slo_violations, b.combined.slo_violations);
  }
}

TEST(Runner, CacheStatsZeroForPoliciesWithoutCache) {
  Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  const auto scenario = short_scenario(models::ModelId::kResNet50, 30.0, seconds(20));
  const auto result = runner.run_once(scenario, SchemeId::kMoleculeCost, 5);
  EXPECT_EQ(result.combined.tmax_cache_hits, 0.0);
  EXPECT_EQ(result.combined.tmax_cache_misses, 0.0);
  EXPECT_EQ(result.combined.tmax_cache_hit_rate, 0.0);
}

TEST(Runner, CacheStatsNonzeroForPaldiaAndOracle) {
  // A real workload revisits Eq. 1 operating points, so both policies that
  // own a TmaxCache report hits as well as misses.
  Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  const auto scenario = short_scenario(models::ModelId::kResNet50, 60.0, seconds(30));
  for (SchemeId scheme : {SchemeId::kPaldia, SchemeId::kOracle}) {
    const auto result = runner.run_once(scenario, scheme, 5);
    EXPECT_GT(result.combined.tmax_cache_hits, 0.0) << scheme_name(scheme);
    EXPECT_GT(result.combined.tmax_cache_misses, 0.0) << scheme_name(scheme);
  }
}

TEST(Runner, SweepWorkDoesNotDependOnTheTracer) {
  // Algorithm 1 evaluates the whole candidate pool whether or not a tracer
  // records the sweep, so a traced run does exactly the Eq. 1 sweep work of
  // an untraced one: every metrics column matches, the T_max cache counters
  // included. Only the calibration columns differ; only a tracer's decision
  // records feed them.
  Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  const auto scenario = short_scenario(models::ModelId::kResNet50, 120.0, seconds(30));
  auto untraced = runner.run_once(scenario, SchemeId::kPaldia, 5);
  obs::Tracer tracer;
  auto traced = runner.run_once(scenario, SchemeId::kPaldia, 5, false, &tracer);
  EXPECT_GT(traced.combined.calib_intervals, 0.0);
  EXPECT_EQ(untraced.combined.calib_intervals, 0.0);
  EXPECT_GT(untraced.combined.tmax_cache_hits, 0.0);
  EXPECT_EQ(traced.combined.tmax_cache_hits, untraced.combined.tmax_cache_hits);
  EXPECT_EQ(traced.combined.tmax_cache_misses, untraced.combined.tmax_cache_misses);

  const auto rows = [](RunResult& result) {
    std::ostringstream out;
    obs::MetricsWriter writer(out, obs::ExportFormat::kJsonl);
    result.per_workload.push_back(result.combined);
    for (auto& row : result.per_workload) {
      row.tmax_mape = row.tmax_coverage = row.rate_mape = row.calib_intervals = 0.0;
      writer.write(row);
    }
    return out.str();
  };
  EXPECT_EQ(rows(traced), rows(untraced));
}

TEST(Runner, CombinedRowCountsTheTailSamplesItAverages) {
  // p99_breakdown.samples is the number of tail samples a breakdown
  // averages, in a workload row and in the row extract_run_metrics combines
  // (the sum of its workloads'). A single-workload run exports the same
  // count in both rows, not the request count in the combined one.
  Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  const auto scenario = short_scenario(models::ModelId::kResNet50, 120.0, seconds(30));
  const auto result = runner.run_once(scenario, SchemeId::kPaldia, 5);
  ASSERT_EQ(result.per_workload.size(), 1u);
  const auto& workload_row = result.per_workload.front();
  EXPECT_GT(workload_row.p99_breakdown.samples, 0u);
  EXPECT_LT(workload_row.p99_breakdown.samples, workload_row.requests);

  const auto exported_samples = [](const telemetry::RunMetrics& row) {
    std::ostringstream out;
    obs::MetricsWriter writer(out, obs::ExportFormat::kJsonl);
    writer.write(row);
    const std::string line = out.str();
    const auto at = line.find("\"samples\":");
    return at == std::string::npos ? std::string()
                                   : line.substr(at, line.find('}', at) - at);
  };
  EXPECT_FALSE(exported_samples(workload_row).empty());
  EXPECT_EQ(exported_samples(result.combined), exported_samples(workload_row));
}

TEST(SchemeFactory, BuildsEveryScheme) {
  models::ProfileTable profile(hw::Catalog::instance());
  SchemeFactory factory(models::Zoo::instance(), hw::Catalog::instance(), profile);
  for (SchemeId id :
       {SchemeId::kPaldia, SchemeId::kInflessLlamaCost, SchemeId::kInflessLlamaPerf,
        SchemeId::kMoleculeCost, SchemeId::kMoleculePerf, SchemeId::kOracle,
        SchemeId::kOfflineHybrid, SchemeId::kMpsOnlyPerf, SchemeId::kMpsOnlyCost,
        SchemeId::kTimeSharedPerf, SchemeId::kTimeSharedCost}) {
    auto policy = factory.make(id);
    ASSERT_NE(policy, nullptr) << scheme_name(id);
    EXPECT_EQ(policy->name(), scheme_name(id));
  }
}

TEST(SchemeFactory, InitialNodes) {
  models::ProfileTable profile(hw::Catalog::instance());
  SchemeFactory factory(models::Zoo::instance(), hw::Catalog::instance(), profile);
  EXPECT_EQ(factory.initial_node(SchemeId::kInflessLlamaPerf),
            hw::NodeType::kP3_2xlarge);
  EXPECT_EQ(factory.initial_node(SchemeId::kMpsOnlyCost), hw::NodeType::kG3s_xlarge);
  EXPECT_EQ(factory.initial_node(SchemeId::kPaldia), hw::NodeType::kC6i_2xlarge);
}

TEST(Summary, OutlierRuleApplied) {
  telemetry::RunMetrics base;
  base.scheme = "x";
  base.slo_compliance = 0.99;
  std::vector<telemetry::RunMetrics> runs(21, base);
  for (std::size_t i = 0; i < 20; ++i) {
    runs[i].slo_compliance = 0.99 + (i % 2 == 0 ? 0.001 : -0.001);
  }
  runs[20].slo_compliance = 0.10;  // a wild outlier repetition
  const auto aggregated = aggregate_metrics(runs);
  EXPECT_NEAR(aggregated.slo_compliance, 0.99, 0.005);
}

TEST(Summary, AggregateRunsPreservesWorkloadSlots) {
  RunResult rep;
  telemetry::RunMetrics m;
  m.scheme = "s";
  m.slo_compliance = 0.9;
  rep.per_workload = {m, m};
  rep.combined = m;
  const auto aggregated = aggregate_runs({rep, rep});
  EXPECT_EQ(aggregated.per_workload.size(), 2u);
  EXPECT_NEAR(aggregated.combined.slo_compliance, 0.9, 1e-12);
}

TEST(Scenario, PaperPeakScaling) {
  EXPECT_EQ(paper_peak_rps(models::ModelId::kGoogleNet), 225.0);   // high FBR
  EXPECT_EQ(paper_peak_rps(models::ModelId::kSeNet18), 450.0);     // low FBR
  EXPECT_EQ(paper_peak_rps(models::ModelId::kBert), 8.0);          // language
}

TEST(Scenario, BuildersProduceTraces) {
  const auto azure = azure_scenario(models::ModelId::kResNet50);
  EXPECT_EQ(azure.workloads.size(), 1u);
  EXPECT_NEAR(azure.workloads[0].trace.peak_rps(), 225.0, 60.0);
  const auto llm = llm_scenario(models::ModelId::kBert);
  EXPECT_NEAR(llm.workloads[0].trace.peak_rps(), 8.0, 6.0);
}

}  // namespace
}  // namespace paldia::exp
