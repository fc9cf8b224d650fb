// Micro-benchmarks (google-benchmark): hot-path costs of the scheduler and
// the simulation substrate. The headline check is the paper's claim that
// the parallel y-sweep finds the best split "with minimal overhead
// (< 3 ms)" — see BM_YOptimizerSweep.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/gpu_device.hpp"
#include "src/common/histogram.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/batcher.hpp"
#include "src/core/fleet.hpp"
#include "src/core/gateway.hpp"
#include "src/core/hardware_selection.hpp"
#include "src/hw/catalog_gen.hpp"
#include "src/models/profile.hpp"
#include "src/models/zoo.hpp"
#include "src/obs/attribution.hpp"
#include "src/obs/health.hpp"
#include "src/obs/rollup.hpp"
#include "src/obs/sampler.hpp"
#include "src/obs/sketch.hpp"
#include "src/obs/tracer.hpp"
#include "src/perfmodel/tmax_cache.hpp"
#include "src/perfmodel/y_optimizer.hpp"
#include "src/predictor/ewma.hpp"
#include "src/sim/simulator.hpp"
#include "src/trace/generators.hpp"

namespace {

using namespace paldia;

void BM_YOptimizerSweep(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  perfmodel::YOptimizer optimizer(perfmodel::TmaxModel(0.2));
  const perfmodel::WorkloadPoint point{n, 64, 90.0, 0.65, 200.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.best_split(point));
  }
  state.SetLabel("paper claims < 3 ms per sweep");
}
BENCHMARK(BM_YOptimizerSweep)->Arg(128)->Arg(1024)->Arg(8192);

void BM_YOptimizerSweepParallel(benchmark::State& state) {
  static ThreadPool pool(4);
  perfmodel::YOptimizer optimizer(perfmodel::TmaxModel(0.2), &pool);
  const perfmodel::WorkloadPoint point{8192, 64, 90.0, 0.65, 200.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.best_split(point));
  }
}
BENCHMARK(BM_YOptimizerSweepParallel);

void BM_HardwareSelectionChoose(benchmark::State& state) {
  models::ProfileTable profile(hw::Catalog::instance());
  perfmodel::YOptimizer optimizer(perfmodel::TmaxModel(0.2));
  core::HardwareSelection selection(models::Zoo::instance(), hw::Catalog::instance(),
                                    profile, optimizer);
  core::DemandSnapshot demand;
  demand.model = models::ModelId::kResNet50;
  demand.observed_rps = demand.predicted_rps = demand.smoothed_rps =
      static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(selection.choose({demand}));
  }
}
BENCHMARK(BM_HardwareSelectionChoose)->Arg(10)->Arg(200)->Arg(700);

// Algorithm 1 on a fleet-scale generated catalog (64 node types): the pruned
// candidate walk versus the exhaustive linear reference. Same rotating
// demand points, same catalog, no T_max cache — the benchmark measures raw
// sweep work, which is exactly what pruning saves. perf_baseline.py tracks
// the pruned/linear ratio (target >= 3x) via BENCH_perf.json.
void SelectionSweepLargeCatalog(benchmark::State& state, bool prune) {
  static const hw::Catalog catalog =
      hw::generate_catalog({.node_count = 64, .seed = 7});
  static const models::ProfileTable profile(catalog);
  perfmodel::YOptimizer optimizer(perfmodel::TmaxModel(0.2));
  core::HardwareSelectionConfig config;
  config.prune = prune;
  core::HardwareSelection selection(models::Zoo::instance(), catalog, profile,
                                    optimizer, nullptr, config);
  std::vector<std::vector<core::DemandSnapshot>> demands;
  for (int i = 0; i < 32; ++i) {
    core::DemandSnapshot demand;
    demand.model = static_cast<models::ModelId>(i % models::kModelCount);
    demand.observed_rps = demand.predicted_rps = demand.smoothed_rps =
        5.0 * (1 + (i * 7) % 40);
    demand.backlog = (i * 13) % 32;
    demands.push_back({demand});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(selection.choose(demands[i++ % demands.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_SelectionSweepLargeCatalog(benchmark::State& state) {
  SelectionSweepLargeCatalog(state, /*prune=*/true);
}
BENCHMARK(BM_SelectionSweepLargeCatalog);

void BM_SelectionSweepLinearLargeCatalog(benchmark::State& state) {
  SelectionSweepLargeCatalog(state, /*prune=*/false);
}
BENCHMARK(BM_SelectionSweepLinearLargeCatalog);

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    for (int i = 0; i < 10'000; ++i) {
      simulator.schedule_in((i * 37) % 1000, [] {});
    }
    simulator.run_to_completion();
    benchmark::DoNotOptimize(simulator.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EventQueueChurn);

void BM_EventQueueScheduleCancelPop(benchmark::State& state) {
  // The device-sim hot pattern (GpuDevice::reschedule_completion): schedule
  // a completion, cancel it when the concurrency set changes, pop what
  // survives — interleaved so the heap stays warm like a real run.
  for (auto _ : state) {
    sim::EventQueue queue;
    std::vector<sim::EventHandle> ring(64);
    std::size_t slot = 0;
    double popped_until = 0.0;
    for (int i = 0; i < 10'000; ++i) {
      ring[slot].cancel();
      const double t =
          popped_until + static_cast<double>((i * 37) % 1000) + 1.0;
      ring[slot] = queue.schedule(t, [] {});
      slot = (slot + 1) % ring.size();
      if (i % 16 == 15) {
        for (int p = 0; p < 8 && !queue.empty(); ++p) {
          auto fired = queue.pop();
          popped_until = fired.time;
          fired.fn();
        }
      }
    }
    while (!queue.empty()) queue.pop().fn();
    benchmark::DoNotOptimize(popped_until);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
  state.SetLabel("schedule+cancel+pop churn");
}
BENCHMARK(BM_EventQueueScheduleCancelPop);

void BM_SimulatorPeriodicTick(benchmark::State& state) {
  // Per-firing cost of schedule_every: the monitor/dispatch/sampler loops
  // all ride this primitive, thousands of firings per simulated run.
  for (auto _ : state) {
    sim::Simulator simulator;
    std::uint64_t ticks = 0;
    auto handle = simulator.schedule_every(0.0, 1.0, [&] { ++ticks; });
    simulator.run_until(10'000.0);
    handle.cancel();
    simulator.run_to_completion();
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(state.iterations() * 10'001);
}
BENCHMARK(BM_SimulatorPeriodicTick);

void BM_FleetRoute(benchmark::State& state) {
  // Per-arrival cost of the fleet request router: one splitmix64 finalizer
  // over (seed ^ sequence) plus a modulo. add_workload pays this once per
  // arrival when splitting a global trace, so millions of requests want it
  // in the few-nanosecond range.
  std::uint64_t sequence = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink += static_cast<std::uint64_t>(
        core::Fleet::route(0x9a1d1a, sequence++, 64));
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FleetRoute);

void BM_TmaxCacheHit(benchmark::State& state) {
  // Steady-state cost of a memoized Eq. 1 sweep: one mutex + hash lookup
  // instead of the full y-sweep. Compare with BM_YOptimizerSweep — the gap
  // is what the cache saves on every revisited operating point.
  perfmodel::YOptimizer optimizer(perfmodel::TmaxModel(0.2));
  perfmodel::TmaxCache cache;
  const int n = 1024;
  const perfmodel::WorkloadPoint point{n, 64, 90.0, 0.65, 200.0};
  perfmodel::TmaxCache::Key key;
  key.model = 1;
  key.node = 2;
  key.n_requests = n;
  key.slo_q = perfmodel::TmaxCache::quantize_slo(point.slo_ms);
  key.max_probes = perfmodel::kDefaultSweepProbes;
  cache.best_split(optimizer, key, point, perfmodel::kDefaultSweepProbes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.best_split(optimizer, key, point, perfmodel::kDefaultSweepProbes));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("memoized sweep lookup");
}
BENCHMARK(BM_TmaxCacheHit);

void BM_GpuDeviceProcessorSharing(benchmark::State& state) {
  const auto& gpu = *hw::Catalog::instance().spec(hw::NodeType::kG3s_xlarge).gpu;
  for (auto _ : state) {
    sim::Simulator simulator;
    cluster::GpuDevice device(simulator, gpu, Rng(1));
    for (int i = 0; i < 200; ++i) {
      cluster::GpuJob job;
      job.solo_ms = 50.0;
      job.fbr = 0.4;
      job.on_complete = [](const cluster::ExecutionReport&) {};
      if (i % 3 == 0) {
        device.submit_serial(std::move(job));
      } else {
        device.submit_spatial(std::move(job));
      }
    }
    benchmark::DoNotOptimize(simulator.run_to_completion());
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_GpuDeviceProcessorSharing);

void BM_HistogramAdd(benchmark::State& state) {
  Histogram histogram;
  Rng rng(3);
  double value = 1.0;
  for (auto _ : state) {
    value = value * 1.37 + 0.11;
    if (value > 5000.0) value = 1.0;
    histogram.add(value);
  }
  benchmark::DoNotOptimize(histogram.quantile(0.99));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramAdd);

void BM_HistogramPercentiles(benchmark::State& state) {
  // P50/P95/P99 extraction, the per-workload metrics path: one batched
  // scan vs three single-quantile scans.
  Histogram histogram;
  Rng rng(5);
  for (int i = 0; i < 200'000; ++i) histogram.add(rng.uniform(0.5, 4000.0));
  const double qs[] = {0.5, 0.95, 0.99};
  for (auto _ : state) {
    if (state.range(0) == 0) {
      benchmark::DoNotOptimize(histogram.quantiles(qs));
    } else {
      for (const double q : qs) benchmark::DoNotOptimize(histogram.quantile(q));
    }
  }
  state.SetLabel(state.range(0) == 0 ? "batched" : "3x single");
}
BENCHMARK(BM_HistogramPercentiles)->Arg(0)->Arg(1);

void BM_EwmaObservePredict(benchmark::State& state) {
  predictor::EwmaPredictor predictor;
  double t = 0.0;
  for (auto _ : state) {
    t += 1000.0;
    predictor.observe(t, 50.0 + (static_cast<int>(t) % 7));
    benchmark::DoNotOptimize(predictor.predict(t, 4000.0));
  }
}
BENCHMARK(BM_EwmaObservePredict);

void BM_AzureTraceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    trace::AzureOptions options;
    options.seed = static_cast<std::uint64_t>(state.iterations());
    benchmark::DoNotOptimize(trace::make_azure_trace(options).total_requests());
  }
}
BENCHMARK(BM_AzureTraceGeneration);

void BM_TracerDisabledHook(benchmark::State& state) {
  // The cost every hot-path hook pays when tracing is off: one pointer
  // compare against null (the log.hpp discipline). This must stay in the
  // sub-nanosecond range or tracing is not "free when disabled".
  obs::Tracer* tracer = nullptr;
  benchmark::DoNotOptimize(tracer);
  double sink = 0.0;
  for (auto _ : state) {
    if (tracer != nullptr) tracer->count("arrivals", 1.0);
    sink += 1.0;
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("null-tracer branch");
}
BENCHMARK(BM_TracerDisabledHook);

void BM_SketchInsert(benchmark::State& state) {
  // Attribution keeps one QuantileSketch per model/node bucket; every
  // completed request pays one insert per bucket it lands in. Same bucket
  // math as Histogram::add — this pins the per-sample cost.
  obs::QuantileSketch sketch;
  double value = 1.0;
  for (auto _ : state) {
    value = value * 1.31 + 0.07;
    if (value > 4000.0) value = 1.0;
    sketch.insert(value);
  }
  benchmark::DoNotOptimize(sketch.summary().p99_ms);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SketchInsert);

void BM_AttributionDisabledHook(benchmark::State& state) {
  // The framework holds an AttributionEngine* that is nullptr when
  // attribution is off — the disabled hot-path cost is one branch, exactly
  // like the null-tracer discipline above.
  obs::AttributionEngine* engine = nullptr;
  benchmark::DoNotOptimize(engine);
  double sink = 0.0;
  for (auto _ : state) {
    if (engine != nullptr) engine->on_requeued(1);
    sink += 1.0;
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("null-engine branch");
}
BENCHMARK(BM_AttributionDisabledHook);

void BM_AttributionObserve(benchmark::State& state) {
  // Enabled-path cost per completed request: classify + three bucket
  // updates (total, per-model, per-node) + one sketch insert each.
  obs::AttributionEngine engine(models::Zoo::instance());
  obs::LifecycleSample sample;
  sample.model = static_cast<int>(models::ModelId::kResNet50);
  sample.node = static_cast<int>(hw::NodeType::kG3s_xlarge);
  std::int64_t id = 0;
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    sample.request_id = id++;
    sample.arrival_ms = t;
    sample.submit_ms = t + 3.0;
    sample.start_ms = t + 5.0;
    // Alternate compliant / violating so both paths are exercised.
    sample.end_ms = t + ((id & 1) != 0 ? 95.0 : 295.0);
    sample.solo_ms = 88.0;
    sample.interference_ms = (id & 1) != 0 ? 2.0 : 202.0;
    benchmark::DoNotOptimize(engine.observe_request(sample));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AttributionObserve);

void BM_SamplerDecision(benchmark::State& state) {
  // Per-lifecycle cost of the trace-sampling decision at --sample-rate=N:
  // one splitmix64 finalizer over the request id plus a modulo. This runs
  // once per completed request when sampling is on, so it must stay in the
  // few-nanosecond range for "sampling makes tracing cheaper" to hold.
  const obs::TraceSampler sampler(static_cast<std::uint32_t>(state.range(0)));
  std::int64_t id = 0;
  std::uint64_t kept = 0;
  for (auto _ : state) {
    kept += sampler.keep(id++, /*violated=*/false) ? 1 : 0;
  }
  benchmark::DoNotOptimize(kept);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SamplerDecision)->Arg(8)->Arg(64);

void BM_RollupObserve(benchmark::State& state) {
  // Enabled-path cost per completion of the windowed rollup: one cell
  // lookup (one-entry cache in front of a std::map) plus a counter bump and
  // a sketch insert. Completions cluster within a (window, model, node)
  // cell, so the cache hit path dominates — this pins that cost.
  obs::RollupAggregator rollup;
  const int model = static_cast<int>(models::ModelId::kResNet50);
  const int node = static_cast<int>(hw::NodeType::kG3s_xlarge);
  const std::optional<telemetry::ViolationCause> compliant;
  double t = 0.0;
  for (auto _ : state) {
    t += 0.37;
    rollup.observe_completion(t, model, node, 95.0 + (t * 0.001), compliant);
  }
  benchmark::DoNotOptimize(rollup.completions());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RollupObserve);

void BM_HealthDisabledHook(benchmark::State& state) {
  // The framework holds a HealthEngine* that is nullptr when the health
  // engine is off — the disabled hot-path cost is one branch, same
  // discipline as the null tracer/attribution hooks above.
  obs::HealthEngine* engine = nullptr;
  benchmark::DoNotOptimize(engine);
  double sink = 0.0;
  for (auto _ : state) {
    if (engine != nullptr) engine->observe_in_flight(0.0, 0, 1.0);
    sink += 1.0;
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("null-engine branch");
}
BENCHMARK(BM_HealthDisabledHook);

void BM_HealthObserve(benchmark::State& state) {
  // Enabled-path cost per completed request: counter bumps plus a sketch
  // insert on the cluster-wide and the (model, node) key.
  obs::HealthEngine engine;
  const int model = static_cast<int>(models::ModelId::kResNet50);
  const int node = static_cast<int>(hw::NodeType::kG3s_xlarge);
  const std::optional<telemetry::ViolationCause> compliant;
  double t = 0.0;
  for (auto _ : state) {
    t += 0.37;
    engine.observe_completion(t, model, node, 95.0 + (t * 0.001), compliant);
  }
  benchmark::DoNotOptimize(engine.completions());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HealthObserve);

void BM_BurnRateEval(benchmark::State& state) {
  // Monitor-tick cost of one full detector evaluation over a warmed engine:
  // per key, two windowed burn lookups over the tick deque, the CUSUM and
  // z-score updates, and three lifecycle steps. Runs once per monitor tick
  // (default 500 ms of simulated time), so staying in the sub-microsecond
  // range keeps the engine invisible next to the simulation itself.
  obs::HealthEngine engine;
  const int node = static_cast<int>(hw::NodeType::kG3s_xlarge);
  const std::optional<telemetry::ViolationCause> compliant;
  double t = 0.0;
  auto tick = [&] {
    t += 500.0;
    for (int m = 0; m < 4; ++m) {
      engine.observe_completion(t - 250.0, m, node, 95.0, compliant);
      engine.observe_queue_depth(t, m, node, 5.0);
    }
    engine.observe_in_flight(t, node, 3.0);
    engine.evaluate(t);
  };
  for (int warm = 0; warm < 64; ++warm) tick();  // baselines armed, deque full
  for (auto _ : state) {
    tick();
  }
  benchmark::DoNotOptimize(engine.evaluations());
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("5-key detector pass");
}
BENCHMARK(BM_BurnRateEval);

void BM_RequestPoolChurn(benchmark::State& state) {
  // The request-path storage churn of one dispatch round: a taken buffer of
  // 64 requests carved into 4 batches of 16, everything freed when the
  // batches complete. This is the pattern Gateway::take + Batcher::chunk +
  // the per-batch completion closures execute millions of times per run.
  cluster::Request proto;
  proto.id = RequestId{1};
  proto.model = models::ModelId::kResNet50;
  proto.arrival_ms = 1.0;
  cluster::RequestArena arena;
  for (auto _ : state) {
    for (int round = 0; round < 64; ++round) {
      cluster::RequestBlock taken = arena.acquire();
      for (int i = 0; i < 64; ++i) taken.push_back(proto);
      for (int begin = 0; begin < 64; begin += 16) {
        cluster::RequestBlock batch = arena.acquire();
        batch.append(taken.data() + begin, 16);
        benchmark::DoNotOptimize(batch.data());
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * 64 * 64);
  state.SetLabel("take+chunk buffer churn");
}
BENCHMARK(BM_RequestPoolChurn);

void BM_GatewayTakeChunk(benchmark::State& state) {
  // End-to-end storage cost of the dispatch tick's front half: inject an
  // epoch, pop the arrived prefix, chunk it into batches.
  core::Gateway gateway(Rng(11));
  const auto model = models::ModelId::kResNet50;
  gateway.add_workload(model);
  core::Batcher batcher;
  cluster::IdAllocator ids;
  double t = 0.0;
  for (auto _ : state) {
    t += 100.0;
    gateway.inject(model, 256, t, 100.0);
    auto taken = gateway.take(model, 256, t + 100.0);
    const auto batches = batcher.chunk(std::move(taken), 32, t + 100.0, ids);
    benchmark::DoNotOptimize(batches.size());
  }
  state.SetItemsProcessed(state.iterations() * 256);
  state.SetLabel("inject+take+chunk round");
}
BENCHMARK(BM_GatewayTakeChunk);

void BM_TracerBulkAppend(benchmark::State& state) {
  // Per-batch lifecycle recording: one completed 32-request batch fanning
  // out into 4 events per request.
  obs::TracerConfig config;
  config.event_capacity = 1 << 22;
  auto tracer = std::make_unique<obs::Tracer>(config);
  constexpr int kBatch = 32;
  std::vector<cluster::Request> requests(kBatch);
  std::int64_t id = 0;
  double t = 0.0;
  for (auto _ : state) {
    if (tracer->events().size() + 4 * kBatch > config.event_capacity) {
      state.PauseTiming();
      tracer = std::make_unique<obs::Tracer>(config);
      state.ResumeTiming();
    }
    t += 1.0;
    for (int i = 0; i < kBatch; ++i) {
      requests[static_cast<std::size_t>(i)].id = RequestId{id++};
      requests[static_cast<std::size_t>(i)].model = models::ModelId::kResNet50;
      requests[static_cast<std::size_t>(i)].arrival_ms = t;
    }
    tracer->record_batch_lifecycles(requests.data(), kBatch,
                                    models::ModelId::kResNet50,
                                    hw::NodeType::kG3s_xlarge,
                                    cluster::ShareMode::kSpatial, kBatch, 24, 8,
                                    t + 3.0, t + 5.0, t + 95.0, 88.0, 2.0, 0.0);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.SetLabel("batched lifecycle append");
}
BENCHMARK(BM_TracerBulkAppend);

void BM_TracerRecordLifecycle(benchmark::State& state) {
  // Enabled-path cost of the heaviest record: 4 events per request.
  obs::TracerConfig config;
  config.event_capacity = 1 << 22;
  auto tracer = std::make_unique<obs::Tracer>(config);
  std::int64_t id = 0;
  double t = 0.0;
  for (auto _ : state) {
    if (tracer->events().size() + 4 > config.event_capacity) {
      state.PauseTiming();
      tracer = std::make_unique<obs::Tracer>(config);
      state.ResumeTiming();
    }
    t += 1.0;
    tracer->record_request_lifecycle(id++, models::ModelId::kResNet50,
                                     hw::NodeType::kG3s_xlarge,
                                     cluster::ShareMode::kSpatial, 8, 6, 2, t,
                                     t + 3.0, t + 5.0, t + 95.0, 88.0, 2.0, 0.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerRecordLifecycle);

}  // namespace

// Custom main instead of benchmark_main: adds --json-out=FILE, which routes
// the standard google-benchmark JSON report to FILE (the perf-baseline
// tooling reads it; see tools/perf_baseline.py and BENCH_perf.json).
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json-out=", 0) == 0) {
      args.push_back("--benchmark_out=" + arg.substr(11));
      args.push_back("--benchmark_out_format=json");
    } else {
      args.push_back(arg);
    }
  }
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (auto& arg : args) argv2.push_back(arg.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
