#include "src/perfmodel/cpu_latency_model.hpp"

#include <algorithm>
#include <cmath>

namespace paldia::perfmodel {

CpuEstimate approx_cpu_t_max(const models::ModelSpec& model,
                             const models::ProfileTable& profile, hw::NodeType node,
                             int n_requests, DurationMs slo_ms) {
  CpuEstimate estimate;
  if (n_requests <= 0) {
    estimate.feasible = true;
    return estimate;
  }
  // Largest batch whose isolated latency leaves headroom for at least one
  // more batch ahead of it in the queue would be ideal; the simple bound the
  // paper needs is: batches drain sequentially, last one finishes after
  // ceil(N / bs) * solo(bs). Pick the bs minimising that subject to
  // solo(bs) <= SLO.
  const int fit = profile.max_batch_within(model, node, slo_ms);
  if (fit <= 0) {
    // Even one request cannot be served within the SLO on this node.
    estimate.t_max_ms = profile.lookup(model, node, 1).solo_ms;
    estimate.batch_size = 1;
    estimate.feasible = false;
    return estimate;
  }
  // Sizes past n_requests drain in one batch, so t(bs) = solo(bs) >= t(n)
  // (solo never decreases in bs) and the strict `<` below never picks them.
  double best_t = kTimeNever;
  int best_bs = fit;
  const int last = std::min({fit, model.max_batch, n_requests});
  for (int bs = 1; bs <= last; ++bs) {
    const double solo = profile.solo_ms(model, node, bs);
    const double batches = std::ceil(static_cast<double>(n_requests) / bs);
    const double t = batches * solo;
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

CpuSteadyState cpu_steady_state(const models::ModelSpec& model,
                                const models::ProfileTable& profile,
                                hw::NodeType node, Rps rate, DurationMs slo_ms,
                                DurationMs batch_wait_ms, double max_utilization) {
  CpuSteadyState state;
  if (rate <= 0.0) {
    state.feasible = true;
    state.batch_size = 1;
    state.latency_ms = profile.lookup(model, node, 1).solo_ms;
    return state;
  }
  const int fit = profile.max_batch_within(model, node, slo_ms);
  if (fit <= 0) return state;  // infeasible: one request alone busts the SLO

  // The batcher collects for at most batch_wait_ms, so the operating batch
  // size is what accumulates in that window.
  const int bs = std::clamp(
      static_cast<int>(std::ceil(rate * batch_wait_ms / kMsPerSecond)), 1, fit);
  const DurationMs solo = profile.lookup(model, node, bs).solo_ms;
  const Rps capacity = bs / (solo / kMsPerSecond);
  const double rho = rate / capacity;

  state.batch_size = bs;
  state.utilization = rho;
  if (rho >= max_utilization) {
    state.latency_ms = kTimeNever;
    return state;
  }
  const DurationMs fill =
      std::min(batch_wait_ms, bs / rate * kMsPerSecond);
  const DurationMs queue = solo * rho / (2.0 * (1.0 - rho));
  state.latency_ms = fill + solo + queue;
  state.feasible = state.latency_ms <= slo_ms;
  return state;
}

}  // namespace paldia::perfmodel
