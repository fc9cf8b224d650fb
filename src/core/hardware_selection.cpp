#include "src/core/hardware_selection.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace paldia::core {

HardwareSelection::HardwareSelection(const models::Zoo& zoo, const hw::Catalog& catalog,
                                     const models::ProfileTable& profile,
                                     const perfmodel::YOptimizer& optimizer,
                                     HardwareSelectionConfig config)
    : zoo_(&zoo),
      catalog_(&catalog),
      profile_(&profile),
      optimizer_(&optimizer),
      config_(config) {}

perfmodel::SharingDecision HardwareSelection::sweep(
    models::ModelId model, hw::NodeType node,
    const perfmodel::WorkloadPoint& point) const {
  if (cache_ == nullptr) return optimizer_->best_split(point);
  return cache_->best_split(*optimizer_, model, node, point);
}

SplitPlan HardwareSelection::plan_dispatch(const DemandSnapshot& demand,
                                           hw::NodeType node) const {
  SplitPlan plan;
  const auto& model = zoo_->spec(demand.model);
  const int n = demand.backlog;
  if (n <= 0) return plan;
  const DurationMs budget = model.slo_ms * config_.slo_headroom;

  if (!catalog_->spec(node).is_gpu()) {
    const auto estimate = perfmodel::approx_cpu_t_max(model, *profile_, node, n, budget);
    plan.use_cpu = true;
    plan.batch_size = std::max(1, estimate.batch_size);
    plan.temporal_requests = n;  // CPU mode serves batches sequentially
    return plan;
  }

  const int bs = std::min(model.max_batch, std::max(1, n));
  const auto entry = profile_->lookup(model, node, bs);
  const auto decision = sweep(
      demand.model, node,
      perfmodel::WorkloadPoint{n, bs, entry.solo_ms, entry.fbr, budget, entry.compute});
  plan.batch_size = bs;
  plan.temporal_requests = std::clamp(decision.y, 0, n);
  plan.spatial_requests = n - plan.temporal_requests;
  return plan;
}

int HardwareSelection::coexisting_requests(const DemandSnapshot& demand,
                                           DurationMs slo_ms) const {
  // Trend-boosted prediction: the burst bound is the early-warning signal
  // for surge fronts — a CPU node must be abandoned *before* the ramp
  // outruns it (procurement + warmup take several seconds). Steady-state
  // feasibility separately uses the smoothed rate (see evaluate()), which
  // keeps prediction noise from flapping the selection at baseline.
  const double rate = std::max(demand.predicted_rps, demand.observed_rps);
  const double window_arrivals = rate * (slo_ms / kMsPerSecond);
  return demand.backlog + static_cast<int>(std::ceil(window_arrivals));
}

HardwareChoice HardwareSelection::evaluate(
    hw::NodeType node, const std::vector<DemandSnapshot>& demand) const {
  HardwareChoice choice;
  choice.node = node;
  choice.feasible = true;
  const bool is_gpu = catalog_->spec(node).is_gpu();

  for (const auto& snapshot : demand) {
    const auto& model = zoo_->spec(snapshot.model);
    const DurationMs budget = model.slo_ms * config_.slo_headroom;

    if (!is_gpu) {
      const int n = coexisting_requests(snapshot, model.slo_ms);
      if (n <= 0) continue;
      // Drain bound for the coexisting burst, plus a steady-state queueing
      // estimate for the sustained rate — a sequential executor must stay
      // well below saturation or its tail explodes.
      const auto burst = perfmodel::approx_cpu_t_max(model, *profile_, node, n, budget);
      // Sustained feasibility is judged on the smoothed rate: the trend-
      // boosted prediction whipsaws in steady state and would bounce the
      // selection between the CPU tier and the cheapest GPU.
      const auto steady = perfmodel::cpu_steady_state(
          model, *profile_, node, std::max(snapshot.smoothed_rps, snapshot.observed_rps),
          budget);
      choice.t_max_ms =
          std::max({choice.t_max_ms, burst.t_max_ms,
                    std::isfinite(steady.latency_ms) ? steady.latency_ms : budget * 10});
      choice.feasible = choice.feasible && burst.feasible && steady.feasible;
      continue;
    }

    // GPU nodes: N_M is the demand that actually *coexists* on the device.
    // Under sustained rate lambda it is the backlog plus the arrivals of
    // one service generation (Little's law), so we iterate the fixed point
    //   N = backlog + lambda * T_max(N)
    // a few times, capping T_max at the SLO — if the fixed point does not
    // settle below the SLO the node cannot sustain the rate.
    const Rps lambda = snapshot.predicted_rps;
    const auto point_for = [&](int n) {
      const int bs = std::min(model.max_batch, std::max(1, n));
      const auto entry = profile_->lookup(model, node, bs);
      return perfmodel::WorkloadPoint{n, bs, entry.solo_ms, entry.fbr, budget,
                                      entry.compute};
    };
    const DurationMs solo_full =
        profile_->lookup(model, node, model.max_batch).solo_ms;
    int n = snapshot.backlog +
            static_cast<int>(std::ceil(lambda * solo_full / kMsPerSecond));
    if (n <= 0) continue;
    perfmodel::SharingDecision decision;
    for (int iteration = 0; iteration < 3; ++iteration) {
      decision = sweep(snapshot.model, node, point_for(n));
      const DurationMs horizon = std::min(decision.t_max_ms, model.slo_ms);
      const int next = snapshot.backlog +
                       static_cast<int>(std::ceil(lambda * horizon / kMsPerSecond));
      if (next == n) break;
      n = std::max(1, next);
    }
    choice.t_max_ms = std::max(choice.t_max_ms, decision.t_max_ms);
    // Beyond meeting T_max at the operating point, the node needs bulk
    // throughput headroom over the offered rate — probe an SLO-window's
    // worth of demand at once and measure how fast the best split drains
    // it. Running near that capacity leaves no room for arrival bursts
    // (the tail explodes just like a saturated CPU queue).
    const int n_sat = std::max(
        n, static_cast<int>(std::ceil(lambda * model.slo_ms / kMsPerSecond)));
    const auto saturated = sweep(snapshot.model, node, point_for(n_sat));
    const Rps capacity =
        saturated.t_max_ms > 0.0
            ? n_sat / (saturated.t_max_ms / kMsPerSecond)
            : std::numeric_limits<Rps>::infinity();
    const bool sustainable = capacity >= lambda * 1.15;
    choice.feasible = choice.feasible && decision.feasible && sustainable;
    choice.best_y = decision.y;  // last model wins; single-model runs only use this
  }
  return choice;
}

std::vector<hw::NodeType> HardwareSelection::build_pool(
    const std::vector<DemandSnapshot>& demand) const {
  // Pool: every node whose single-request latency fits the SLO for all
  // active models (profiling prunes hopeless hardware up front).
  std::vector<hw::NodeType> pool;
  for (hw::NodeType type : catalog_->by_cost_ascending()) {
    bool capable = true;
    for (const auto& snapshot : demand) {
      const auto& model = zoo_->spec(snapshot.model);
      if (profile_->lookup(model, type, 1).solo_ms > model.slo_ms) {
        capable = false;
        break;
      }
    }
    if (capable) pool.push_back(type);
  }
  if (pool.empty()) {
    if (const auto top = catalog_->most_performant_gpu()) {
      pool.push_back(*top);
    } else {
      // CPU-only catalog with nothing capable: keep every node so the
      // degraded selection below can still return the least-bad CPU.
      pool.assign(catalog_->by_cost_ascending().begin(),
                  catalog_->by_cost_ascending().end());
    }
  }
  return pool;
}

HardwareChoice HardwareSelection::choose(const std::vector<DemandSnapshot>& demand,
                                         SelectionSweep* sweep) const {
  // Algorithm 1 as written: evaluate every pool member, cheapest first.
  const std::vector<hw::NodeType> pool = build_pool(demand);
  std::vector<HardwareChoice> choices;
  choices.reserve(pool.size() + 1);  // room for an escalation outside the pool
  for (hw::NodeType node : pool) choices.push_back(evaluate(node, demand));
  const auto is_gpu = [this](const HardwareChoice& choice) {
    return catalog_->spec(choice.node).is_gpu();
  };

  // The first feasible CPU node short-circuits (the pseudocode's `break`
  // after approx_T_max): CPU nodes handle low request rates whenever one
  // suffices.
  const HardwareChoice* winner = nullptr;
  for (const auto& choice : choices) {
    if (!is_gpu(choice) && choice.feasible) {
      winner = &choice;
      break;
    }
  }
  const bool cpu_short_circuit = winner != nullptr;

  // choose_best_HW over the GPU candidates: the cheapest feasible one
  // within the performance band of the most performant. A misconfigured
  // negative band would disqualify even the best node itself, so clamp it
  // at zero (exact-best-only).
  const DurationMs band = std::max(0.0, config_.performance_band_ms);
  DurationMs best_t = std::numeric_limits<double>::infinity();
  if (winner == nullptr) {
    for (const auto& choice : choices) {
      if (is_gpu(choice) && choice.feasible) best_t = std::min(best_t, choice.t_max_ms);
    }
    for (const auto& choice : choices) {
      if (is_gpu(choice) && choice.feasible && choice.t_max_ms <= best_t + band) {
        winner = &choice;
        break;
      }
    }
  }

  // Nothing feasible: escalate to the most performant GPU, evaluated here
  // when it is outside the pool so the sweep lists every evaluated node.
  // On a CPU-only catalog, degrade to the least-bad CPU (minimum T_max, the
  // cheapest on ties) instead of aborting.
  if (winner == nullptr) {
    if (const auto top = catalog_->most_performant_gpu()) {
      const auto it =
          std::find_if(choices.begin(), choices.end(),
                       [&](const HardwareChoice& choice) { return choice.node == *top; });
      if (it != choices.end()) {
        winner = &*it;
      } else {
        choices.push_back(evaluate(*top, demand));
        winner = &choices.back();
      }
    } else {
      for (const auto& choice : choices) {
        if (winner == nullptr || choice.t_max_ms < winner->t_max_ms) winner = &choice;
      }
    }
  }

  const HardwareChoice result = *winner;
  if (sweep != nullptr) {
    sweep->candidates = std::move(choices);
    sweep->band_ms = band;
    sweep->best_feasible_gpu_t_max_ms = std::isfinite(best_t) ? best_t : 0.0;
    sweep->cpu_short_circuit = cpu_short_circuit;
    sweep->pool_size = static_cast<int>(pool.size());
  }
  return result;
}

}  // namespace paldia::core
