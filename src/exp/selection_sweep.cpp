#include "src/exp/selection_sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "src/common/rng.hpp"
#include "src/core/hardware_selection.hpp"
#include "src/perfmodel/tmax_cache.hpp"
#include "src/perfmodel/tmax_model.hpp"
#include "src/perfmodel/y_optimizer.hpp"

namespace paldia::exp {

std::vector<std::vector<SweepDemand>> build_sweep_schedule(
    const SelectionSweepConfig& config, const models::Zoo& zoo) {
  const int endpoints = std::max(1, config.endpoints);
  const int ticks = std::max(1, config.ticks);
  const auto all_models = zoo.all();
  const int model_count = static_cast<int>(all_models.size());

  Rng root(config.seed);
  std::vector<std::vector<SweepDemand>> schedule(
      static_cast<std::size_t>(endpoints));
  for (int e = 0; e < endpoints; ++e) {
    Rng rng = root.fork("fleet-endpoint-" + std::to_string(e));
    // 1-3 co-resident models per endpoint; distinct model ids so the
    // selection's per-model max is meaningful.
    const int resident = static_cast<int>(rng.uniform_int(1, 3));
    std::vector<models::ModelId> residents;
    for (int m = 0; m < resident; ++m) {
      const auto id = static_cast<models::ModelId>(
          (e + m * 5) % model_count);  // stride keeps pairs varied
      residents.push_back(id);
    }
    // Multiplicative random-walk rate per model around a model-scaled base:
    // heavier models run at lower offered rates, like a production mix.
    std::vector<double> rate(residents.size());
    for (std::size_t m = 0; m < residents.size(); ++m) {
      const auto& spec = zoo.spec(residents[m]);
      const double base = 400.0 / std::max(1.0, spec.slo_ms / 50.0);
      rate[m] = base * rng.lognormal(0.0, 0.5);
    }
    auto& timeline = schedule[static_cast<std::size_t>(e)];
    timeline.resize(static_cast<std::size_t>(ticks));
    for (int t = 0; t < ticks; ++t) {
      auto& demand = timeline[static_cast<std::size_t>(t)].models;
      demand.reserve(residents.size());
      for (std::size_t m = 0; m < residents.size(); ++m) {
        rate[m] = std::clamp(rate[m] * std::exp(rng.normal(0.0, 0.18)),
                             0.25, 4000.0);
        core::DemandSnapshot snapshot;
        snapshot.model = residents[m];
        snapshot.observed_rps = rate[m];
        // Prediction wobbles around the walk (the fleet driver has no
        // predictor; the wobble stands in for its error).
        snapshot.predicted_rps = rate[m] * rng.lognormal(0.0, 0.10);
        snapshot.smoothed_rps = rate[m];
        const double burst = rng.uniform();
        snapshot.backlog = static_cast<int>(
            std::min(512.0, rate[m] * 0.05 * burst + (burst > 0.97 ? 32.0 : 0.0)));
        demand.push_back(snapshot);
      }
    }
  }
  return schedule;
}

SelectionSweepResult run_selection_sweep(
    const SelectionSweepConfig& config,
    const std::vector<std::vector<SweepDemand>>& schedule,
    const models::Zoo& zoo, const hw::Catalog& catalog,
    const models::ProfileTable& profile) {
  core::HardwareSelectionConfig selection_config;
  selection_config.slo_headroom = config.slo_headroom;
  perfmodel::YOptimizer optimizer{perfmodel::TmaxModel{}};
  core::HardwareSelection selection(zoo, catalog, profile, optimizer,
                                    selection_config);
  // Same memoization the production policy attaches; the cache only changes
  // wall-clock time, never results.
  perfmodel::TmaxCache cache;
  selection.set_tmax_cache(&cache);

  SelectionSweepResult result;
  result.endpoints = static_cast<int>(schedule.size());
  result.ticks = schedule.empty() ? 0 : static_cast<int>(schedule.front().size());

  double cost_sum = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& timeline : schedule) {
    for (const auto& tick : timeline) {
      const core::HardwareChoice choice = selection.choose(tick.models);
      ++result.choices;
      if (choice.feasible) ++result.feasible;
      const auto& spec = catalog.spec(choice.node);
      if (!spec.is_gpu()) ++result.cpu_choices;
      cost_sum += spec.price_per_hour;
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;

  if (result.ticks > 0) {
    result.fleet_cost_per_hour = cost_sum / result.ticks;
  }
  if (result.choices > 0) {
    result.slo_attainment =
        static_cast<double>(result.feasible) / static_cast<double>(result.choices);
    result.micros_per_choice =
        std::chrono::duration<double, std::micro>(elapsed).count() /
        static_cast<double>(result.choices);
  }
  return result;
}

SelectionSweepResult run_selection_sweep(const SelectionSweepConfig& config,
                                         const models::Zoo& zoo,
                                         const hw::Catalog& catalog,
                                         const models::ProfileTable& profile) {
  return run_selection_sweep(config, build_sweep_schedule(config, zoo), zoo,
                             catalog, profile);
}

}  // namespace paldia::exp
