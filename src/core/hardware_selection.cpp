#include "src/core/hardware_selection.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>

namespace paldia::core {

HardwareSelection::HardwareSelection(const models::Zoo& zoo, const hw::Catalog& catalog,
                                     const models::ProfileTable& profile,
                                     const perfmodel::YOptimizer& optimizer,
                                     HardwareSelectionConfig config)
    : zoo_(&zoo),
      catalog_(&catalog),
      profile_(&profile),
      optimizer_(&optimizer),
      config_(config),
      index_(zoo, catalog, profile) {}

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

DurationMs HardwareSelection::gpu_t_max_lower_bound(
    hw::NodeType node, const std::vector<DemandSnapshot>& demand,
    bool* provably_infeasible) const {
  // For each model, every N the evaluate() fixed point can settle on is at
  // least
  //   N_lb = max(1, backlog + ceil(lambda * min(solo(1), SLO) / 1000))
  // because every sweep's T_max is at least solo(bs) >= solo(1) (so the
  // Little's-law horizon is at least min(solo(1), SLO)), and the starting
  // point uses solo(max_batch) >= solo(1). TmaxModel::t_max_lower_bound is
  // monotone in N under bs = min(max_batch, N), so evaluating it at N_lb
  // bounds the real T_max from below; if the bound already exceeds the
  // headroomed SLO the node is provably infeasible without any y-sweep.
  // The mathematical bound holds over the reals; the evaluated T_max goes
  // through a handful more roundings than the bound, so shave a relative
  // margin far above accumulated ulp error and far below any real pruning
  // threshold. Without it a bound could exceed the computed T_max by an ulp
  // and break the pruned/linear byte-identity on a hairline tie.
  constexpr double kUlpMargin = 1.0 - 1e-9;
  DurationMs lower = 0.0;
  *provably_infeasible = false;
  for (const auto& snapshot : demand) {
    const auto& model = zoo_->spec(snapshot.model);
    const DurationMs budget = model.slo_ms * config_.slo_headroom;
    const Rps lambda = snapshot.predicted_rps;
    const DurationMs solo_full =
        profile_->lookup(model, node, model.max_batch).solo_ms;
    const int n0 = snapshot.backlog +
                   static_cast<int>(std::ceil(lambda * solo_full / kMsPerSecond));
    if (n0 <= 0) continue;  // evaluate() skips this model outright
    const DurationMs solo_one = profile_->lookup(model, node, 1).solo_ms;
    const DurationMs horizon = std::min(solo_one, model.slo_ms);
    const int n_lb = std::max(
        1, snapshot.backlog +
               static_cast<int>(std::ceil(lambda * horizon / kMsPerSecond)));
    const int bs = std::min(model.max_batch, n_lb);
    const auto entry = profile_->lookup(model, node, bs);
    const perfmodel::WorkloadPoint point{n_lb, bs, entry.solo_ms, entry.fbr,
                                         budget, entry.compute};
    const DurationMs bound =
        optimizer_->model().t_max_lower_bound(point) * kUlpMargin;
    lower = std::max(lower, bound);
    if (bound > budget) *provably_infeasible = true;
  }
  return lower;
}

std::vector<hw::NodeType> HardwareSelection::build_pool(
    const std::vector<DemandSnapshot>& demand, bool use_masks) const {
  // Pool: every node whose single-request latency fits the SLO for all
  // active models (profiling prunes hopeless hardware up front). The masked
  // path evaluates the same predicate from the precomputed capability bits;
  // both paths produce the identical pool by construction.
  std::vector<hw::NodeType> pool;
  for (hw::NodeType type : catalog_->by_cost_ascending()) {
    bool capable = true;
    for (const auto& snapshot : demand) {
      if (use_masks) {
        if (!index_.capable(snapshot.model, type)) {
          capable = false;
          break;
        }
      } else {
        const auto& model = zoo_->spec(snapshot.model);
        if (profile_->lookup(model, type, 1).solo_ms > model.slo_ms) {
          capable = false;
          break;
        }
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

// The pruned Algorithm 1 walk. Exactness argument, phase by phase (the
// randomized equivalence test in tests/core/selection_prune_test.cpp sweeps
// this against the linear reference over generated catalogs):
//
//  1. CPU short-circuit — identical to the linear scan: CPUs are resolved
//     lazily in cost order and the first feasible one wins.
//  2. best_t — the minimum T_max over feasible GPUs. Candidates are visited
//     in ascending lower-bound order; once the next bound reaches the
//     current minimum, no remaining candidate can lower it (their T_max is
//     at least their bound), so the refinement stops with the exact
//     minimum. Provably-infeasible candidates can never contribute.
//  3. Escalation — same rule as the linear path; on a CPU-only catalog the
//     least-bad (minimum T_max, cheapest on ties) CPU is returned instead.
//  4. Winner scan — cheapest-first through the catalog's cost buckets.
//     Candidates whose lower bound exceeds best_t + band cannot land in the
//     band; provably-infeasible ones cannot be feasible; everything else is
//     resolved until the first feasible in-band candidate — the same node
//     the linear scan breaks on, reached at the latest at the best_t node.
//
// Twin dedup (SelectionIndex) applies throughout: a node whose profile-
// relevant silicon matches an earlier pool member copies that evaluation
// (only the node id differs), so regional price variants cost nothing.
template <typename Evaluator>
HardwareSelection::WalkOutcome HardwareSelection::pruned_walk(
    const std::vector<DemandSnapshot>& demand, const std::vector<hw::NodeType>& pool,
    Evaluator&& eval) const {
  WalkOutcome outcome;
  const std::size_t n = pool.size();

  // Twin groups within this pool: first occurrence (cost order) represents.
  std::vector<std::size_t> rep_of(n);
  {
    std::unordered_map<int, std::size_t> first_by_rep;
    for (std::size_t i = 0; i < n; ++i) {
      const int rep = hw::node_index(index_.twin_representative(pool[i]));
      const auto [it, inserted] = first_by_rep.emplace(rep, i);
      rep_of[i] = it->second;
    }
  }

  std::vector<std::optional<HardwareChoice>> resolved(n);
  const auto resolve = [&](std::size_t i) -> const HardwareChoice& {
    if (!resolved[i]) {
      const std::size_t rep = rep_of[i];  // rep is its own representative
      if (!resolved[rep]) {
        resolved[rep] = eval(rep);
        ++outcome.evaluated;
      }
      if (rep != i) {
        HardwareChoice copy = *resolved[rep];
        copy.node = pool[i];
        resolved[i] = copy;
      }
    }
    return *resolved[i];
  };

  // Phase 1: CPU short-circuit, cheapest-first.
  for (std::size_t i = 0; i < n; ++i) {
    if (catalog_->spec(pool[i]).is_gpu()) continue;
    const HardwareChoice& choice = resolve(i);
    if (choice.feasible) {
      outcome.cpu_short_circuit = true;
      outcome.choice = choice;
      return outcome;
    }
  }

  // Phase 2: exact best feasible GPU T_max via lower-bound-ordered
  // refinement.
  std::vector<std::size_t> gpus;
  gpus.reserve(n);
  std::vector<DurationMs> lower(n, 0.0);
  std::vector<char> lb_infeasible(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!catalog_->spec(pool[i]).is_gpu()) continue;
    if (rep_of[i] == i) {
      bool provably_infeasible = false;
      lower[i] = gpu_t_max_lower_bound(pool[i], demand, &provably_infeasible);
      lb_infeasible[i] = provably_infeasible ? 1 : 0;
    } else {
      lower[i] = lower[rep_of[i]];
      lb_infeasible[i] = lb_infeasible[rep_of[i]];
    }
    gpus.push_back(i);
  }
  std::vector<std::size_t> by_bound = gpus;
  std::sort(by_bound.begin(), by_bound.end(), [&](std::size_t a, std::size_t b) {
    if (lower[a] != lower[b]) return lower[a] < lower[b];
    return a < b;
  });
  DurationMs best_t = std::numeric_limits<double>::infinity();
  for (std::size_t i : by_bound) {
    if (lb_infeasible[i]) continue;
    if (lower[i] >= best_t) break;  // bounds are sorted: nothing can improve
    const HardwareChoice& choice = resolve(i);
    if (choice.feasible) best_t = std::min(best_t, choice.t_max_ms);
  }
  if (std::isfinite(best_t)) outcome.best_feasible_gpu_t_max_ms = best_t;

  // Phase 3: escalation when nothing is feasible.
  if (!std::isfinite(best_t)) {
    const auto top = catalog_->most_performant_gpu();
    if (!top.has_value()) {
      // CPU-only catalog, no feasible CPU: degrade to the least-bad CPU
      // (minimum T_max; the cheapest on ties since the pool is
      // cost-ascending). Phase 1 already resolved every CPU.
      const HardwareChoice* least_bad = nullptr;
      for (std::size_t i = 0; i < n; ++i) {
        if (catalog_->spec(pool[i]).is_gpu()) continue;
        const HardwareChoice& choice = resolve(i);
        if (least_bad == nullptr || choice.t_max_ms < least_bad->t_max_ms) {
          least_bad = &choice;
        }
      }
      if (least_bad != nullptr) {
        outcome.choice = *least_bad;
        return outcome;
      }
      // Degenerate GPU-less, CPU-less pool cannot occur (build_pool always
      // returns at least one node); fall through defensively.
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (top.has_value() && pool[i] == *top) {
        outcome.choice = resolve(i);
        return outcome;
      }
    }
    outcome.escalated_outside_pool = true;  // caller evaluates the top GPU
    return outcome;
  }

  // Phase 4: cheapest feasible GPU within the performance band, walked
  // bucket by bucket so the enumeration stops at the first bucket that
  // yields a winner. A misconfigured negative band would disqualify even
  // the best node itself, so clamp it at zero (exact-best-only).
  const DurationMs band = std::max(0.0, config_.performance_band_ms);
  const DurationMs threshold = best_t + band;
  const int bucket_count = static_cast<int>(catalog_->cost_buckets().size());
  std::size_t i = 0;
  for (int bucket = 0; bucket < bucket_count && i < n; ++bucket) {
    for (; i < n && index_.cost_bucket(pool[i]) <= bucket; ++i) {
      if (!catalog_->spec(pool[i]).is_gpu()) continue;
      if (lb_infeasible[i]) continue;
      if (lower[i] > threshold) continue;  // cannot land inside the band
      const HardwareChoice& choice = resolve(i);
      if (choice.feasible && choice.t_max_ms <= threshold) {
        outcome.choice = choice;
        return outcome;
      }
    }
  }
  // Unreachable when best_t is finite (the best_t node itself passes every
  // filter); keep the linear path's defensive escalation shape.
  outcome.escalated_outside_pool = true;
  return outcome;
}

HardwareChoice HardwareSelection::choose(const std::vector<DemandSnapshot>& demand,
                                         SelectionSweep* sweep) const {
  const std::vector<hw::NodeType> pool = build_pool(demand, config_.prune);
  const DurationMs band = std::max(0.0, config_.performance_band_ms);

  // Fast path: no observer. The pruned walk evaluates candidates lazily;
  // the linear reference evaluates the whole pool up front.
  if (sweep == nullptr && config_.prune) {
    WalkOutcome walk =
        pruned_walk(demand, pool, [&](std::size_t i) { return evaluate(pool[i], demand); });
    if (!walk.escalated_outside_pool) return walk.choice;
    const auto top = catalog_->most_performant_gpu();
    return evaluate(top.value_or(pool.front()), demand);
  }

  // Recorded (or linear) path: evaluate every pool member in cost order, as
  // the decision log lists every candidate; the pruned walk is then
  // replayed over the results to account the work it would have saved.
  std::vector<HardwareChoice> choices;
  choices.reserve(pool.size());
  for (hw::NodeType node : pool) choices.push_back(evaluate(node, demand));

  WalkOutcome walk = pruned_walk(
      demand, pool, [&](std::size_t i) -> const HardwareChoice& { return choices[i]; });

  if (sweep != nullptr) {
    sweep->candidates = choices;  // cost-ascending, same order as the pool
    sweep->band_ms = band;
    sweep->best_feasible_gpu_t_max_ms = walk.best_feasible_gpu_t_max_ms;
    sweep->cpu_short_circuit = walk.cpu_short_circuit;
    sweep->pool_size = static_cast<int>(pool.size());
    sweep->evaluated = walk.evaluated + (walk.escalated_outside_pool ? 1 : 0);
    sweep->pruned = static_cast<int>(pool.size()) - walk.evaluated;
  }

  if (walk.escalated_outside_pool) {
    // The escalation target was outside the capable pool; still surface it
    // in the sweep so the log shows every node that was actually evaluated.
    const auto top = catalog_->most_performant_gpu();
    const HardwareChoice escalated = evaluate(top.value_or(pool.front()), demand);
    if (sweep != nullptr) sweep->candidates.push_back(escalated);
    return escalated;
  }
  if (config_.prune) return walk.choice;

  // Linear reference scan: Algorithm 1 exactly as written.
  // Walking the pool cheapest-first, the first *feasible CPU node*
  // short-circuits (the pseudocode's `break` after approx_T_max) — CPU
  // nodes handle low request rates whenever one suffices.
  for (const auto& choice : choices) {
    if (!catalog_->spec(choice.node).is_gpu() && choice.feasible) return choice;
  }

  // choose_best_HW over the GPU candidates: among feasible ones, the
  // cheapest within performance_band of the most performant; otherwise the
  // walk above already escalated or degraded.
  DurationMs best_t = std::numeric_limits<double>::infinity();
  for (const auto& choice : choices) {
    if (catalog_->spec(choice.node).is_gpu() && choice.feasible) {
      best_t = std::min(best_t, choice.t_max_ms);
    }
  }
  if (!std::isfinite(best_t)) return walk.choice;  // escalation / CPU degrade
  const HardwareChoice* winner = nullptr;
  for (const auto& choice : choices) {  // pool is cost-ascending
    if (!choice.feasible || !catalog_->spec(choice.node).is_gpu()) continue;
    if (choice.t_max_ms <= best_t + band) {
      winner = &choice;
      break;
    }
    // Defensive fallback: the best_t node always satisfies the clamped band,
    // but track the best feasible choice so we can never dereference null.
    if (winner == nullptr || choice.t_max_ms < winner->t_max_ms) winner = &choice;
  }
  if (winner != nullptr) return *winner;
  return walk.choice;
}

}  // namespace paldia::core
