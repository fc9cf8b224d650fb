// The paper's interference/queueing model (Section III, Eq. 1).
//
// Given N outstanding requests of one model on a GPU, y of them are queued
// (time-shared) and N - y run concurrently under MPS. The worst-case
// completion time is
//
//   T_max(y) = Solo * y / BS            (queued portion; the paper's
//                                        "proportionate fraction"
//                                        approximation, <4% error)
//            + Solo * stretch(S(y))     (concurrent portion)
//
// with S(y) = ((N - y) / BS) * FBR, the total fractional bandwidth demand
// of the concurrent set.
//
// The paper's literal Eq. 1 uses stretch(S) = S, valid only when S > 1
// (constraint (ii)). Taken literally over its whole feasible range that
// expression is monotone increasing in y whenever FBR < 1, i.e. all-spatial
// would always be "optimal" — which contradicts the paper's own motivation
// experiment (Fig. 1, where over-consolidation under MPS costs up to 2.2x).
// The missing piece is the superlinear degradation real MPS exhibits under
// gross oversubscription (Prophet's linear model is validated only for
// small co-location degrees). We therefore use
//
//   stretch(S) = max(1, S * (1 + beta * (S - 1)))
//
// the same form the simulated device exhibits; beta is a profiled hardware
// constant, exactly like Solo and FBR (the provider measures it alongside
// them). The *scheduler's* beta may deliberately differ from the device's
// (model error); tests pin the error band. Both the literal and calibrated
// forms are exposed.
#pragma once

#include <optional>
#include <utility>

#include "src/common/units.hpp"

namespace paldia::perfmodel {

/// One model's operating point on one GPU, the inputs of Eq. 1.
struct WorkloadPoint {
  int n_requests = 0;      // N_M: outstanding requests now
  int batch_size = 1;      // BS_M
  DurationMs solo_ms = 0;  // Solo_M on the candidate GPU at batch_size
  double fbr = 0.0;        // FBR_M on the candidate GPU
  DurationMs slo_ms = 200.0;
  /// Per-batch compute (SM) occupancy on the candidate GPU. The concurrent
  /// set's execution stretches by whichever resource saturates first —
  /// bandwidth (the paper's FBR term) or compute (MPS SM contention).
  /// 0 reproduces the bandwidth-only form.
  double compute = 0.0;
};

class TmaxModel {
 public:
  /// beta = 0 reproduces the paper's literal Eq. 1.
  explicit TmaxModel(double beta = 0.2) : beta_(beta) {}

  double beta() const { return beta_; }

  /// Bandwidth demand of the concurrent set for a given split.
  double fbr_sum(const WorkloadPoint& point, int y) const;

  /// Compute demand of the concurrent set for a given split.
  double compute_sum(const WorkloadPoint& point, int y) const;

  /// Execution stretch factor for one resource dimension's total demand.
  double stretch(double demand_sum) const;

  /// T_max for the split. y in [0, N]; y == N is pure time sharing
  /// (T_max = Solo * N / BS, no concurrent set).
  DurationMs t_max_ms(const WorkloadPoint& point, int y) const;

  /// The paper's 'optimal range' of y values: those satisfying constraint
  /// (i) y < N and (ii) S(y) > 1 (interference term valid). Returns an
  /// inclusive [lo, hi] range, or nullopt when no y satisfies (ii) — the
  /// GPU is lightly loaded and the whole demand fits spatially without
  /// saturating bandwidth.
  std::optional<std::pair<int, int>> optimal_range(const WorkloadPoint& point) const;

 private:
  double beta_;
};

}  // namespace paldia::perfmodel
