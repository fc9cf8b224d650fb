// Reference models for the CPU drain and steady-state estimates.
// approx_cpu_t_max stops its batch sweep at n_requests and both estimates
// take their fitting batch size from the binary-searched
// ProfileTable::max_batch_within. These tests keep the full 1..fit sweep
// over a linearly scanned fit as the reference and require bit-equal
// estimates for every request count up to twice the model's max batch, on
// every CPU node of Table II and of generated catalogs.
#include "src/perfmodel/cpu_latency_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/hw/catalog_gen.hpp"
#include "src/models/zoo.hpp"

namespace paldia::perfmodel {
namespace {

int reference_fit(const models::ModelSpec& model, const models::ProfileTable& table,
                  hw::NodeType node, DurationMs budget_ms) {
  int best = 0;
  for (int bs = 1; bs <= model.max_batch; ++bs) {
    if (table.lookup(model, node, bs).solo_ms <= budget_ms) {
      best = bs;
    } else {
      break;
    }
  }
  return best;
}

CpuEstimate reference_cpu_t_max(const models::ModelSpec& model,
                                const models::ProfileTable& table, hw::NodeType node,
                                int n_requests, DurationMs slo_ms) {
  CpuEstimate estimate;
  if (n_requests <= 0) {
    estimate.feasible = true;
    return estimate;
  }
  const int fit = reference_fit(model, table, node, slo_ms);
  if (fit <= 0) {
    estimate.t_max_ms = table.lookup(model, node, 1).solo_ms;
    estimate.batch_size = 1;
    estimate.feasible = false;
    return estimate;
  }
  double best_t = kTimeNever;
  int best_bs = fit;
  for (int bs = 1; bs <= std::min(fit, model.max_batch); ++bs) {
    const double solo = table.lookup(model, node, bs).solo_ms;
    const double t = std::ceil(static_cast<double>(n_requests) / bs) * solo;
    if (t < best_t) {
      best_t = t;
      best_bs = bs;
    }
  }
  estimate.t_max_ms = best_t;
  estimate.batch_size = best_bs;
  estimate.feasible = best_t <= slo_ms;
  return estimate;
}

CpuSteadyState reference_steady_state(const models::ModelSpec& model,
                                      const models::ProfileTable& table,
                                      hw::NodeType node, Rps rate, DurationMs slo_ms) {
  constexpr DurationMs kBatchWaitMs = 50.0;
  constexpr double kMaxUtilization = 0.85;
  CpuSteadyState state;
  if (rate <= 0.0) {
    state.feasible = true;
    state.batch_size = 1;
    state.latency_ms = table.lookup(model, node, 1).solo_ms;
    return state;
  }
  const int fit = reference_fit(model, table, node, slo_ms);
  if (fit <= 0) return state;
  const int bs = std::clamp(
      static_cast<int>(std::ceil(rate * kBatchWaitMs / kMsPerSecond)), 1, fit);
  const DurationMs solo = table.lookup(model, node, bs).solo_ms;
  const double rho = rate / (bs / (solo / kMsPerSecond));
  state.batch_size = bs;
  state.utilization = rho;
  if (rho >= kMaxUtilization) {
    state.latency_ms = kTimeNever;
    return state;
  }
  state.latency_ms = std::min(kBatchWaitMs, bs / rate * kMsPerSecond) + solo +
                     solo * rho / (2.0 * (1.0 - rho));
  state.feasible = state.latency_ms <= slo_ms;
  return state;
}

struct NamedCatalog {
  std::string name;
  hw::Catalog catalog;
};

std::vector<NamedCatalog> catalogs() {
  std::vector<NamedCatalog> out;
  out.push_back({"table2", hw::Catalog()});
  for (const char* spec : {"gen:16", "gen:64:seed=7:gpu=0.3"}) {
    std::string error;
    const auto config = hw::parse_catalog_spec(spec, &error);
    EXPECT_TRUE(config.has_value()) << spec << ": " << error;
    if (config.has_value()) out.push_back({spec, hw::generate_catalog(*config)});
  }
  return out;
}

TEST(CpuModelReference, EstimatesMatchFullSweepOnEveryCpuNode) {
  const models::Zoo& zoo = models::Zoo::instance();
  int cpu_nodes = 0;
  for (const NamedCatalog& named : catalogs()) {
    const models::ProfileTable table(named.catalog);
    for (std::size_t i = 0; i < named.catalog.size(); ++i) {
      const hw::NodeType node = hw::make_node_type(static_cast<int>(i));
      if (named.catalog.spec(node).is_gpu()) continue;
      ++cpu_nodes;
      for (int m = 0; m < models::kModelCount; ++m) {
        const models::ModelSpec& model = zoo.spec(models::ModelId(m));
        // Selection's headroom, the baselines' 0.75 and the bare SLO.
        for (const double headroom : {0.75, 0.85, 1.0}) {
          const DurationMs slo = model.slo_ms * headroom;
          for (int n = 0; n <= 2 * model.max_batch; ++n) {
            const CpuEstimate fast = approx_cpu_t_max(model, table, node, n, slo);
            const CpuEstimate ref = reference_cpu_t_max(model, table, node, n, slo);
            ASSERT_EQ(fast.t_max_ms, ref.t_max_ms)
                << named.name << " node " << i << " " << model.name << " n " << n;
            ASSERT_EQ(fast.batch_size, ref.batch_size)
                << named.name << " node " << i << " " << model.name << " n " << n;
            ASSERT_EQ(fast.feasible, ref.feasible)
                << named.name << " node " << i << " " << model.name << " n " << n;

            // Rates up to 20 * 2 * max_batch rps cover batch sizes past
            // every fit (the batcher collects for 50 ms).
            const Rps rate = 10.0 * n;
            const CpuSteadyState steady =
                cpu_steady_state(model, table, node, rate, slo);
            const CpuSteadyState steady_ref =
                reference_steady_state(model, table, node, rate, slo);
            ASSERT_EQ(steady.latency_ms, steady_ref.latency_ms)
                << named.name << " node " << i << " " << model.name << " rate " << rate;
            ASSERT_EQ(steady.utilization, steady_ref.utilization);
            ASSERT_EQ(steady.batch_size, steady_ref.batch_size);
            ASSERT_EQ(steady.feasible, steady_ref.feasible);
          }
        }
      }
    }
  }
  EXPECT_GE(cpu_nodes, 3 + 2);  // Table II's three plus generated ones
}

}  // namespace
}  // namespace paldia::perfmodel
