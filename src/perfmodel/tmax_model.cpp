#include "src/perfmodel/tmax_model.hpp"

#include <algorithm>
#include <cmath>

namespace paldia::perfmodel {

double TmaxModel::fbr_sum(const WorkloadPoint& point, int y) const {
  const double concurrent = std::max(0, point.n_requests - y);
  return concurrent / static_cast<double>(point.batch_size) * point.fbr;
}

double TmaxModel::compute_sum(const WorkloadPoint& point, int y) const {
  const double concurrent = std::max(0, point.n_requests - y);
  return concurrent / static_cast<double>(point.batch_size) * point.compute;
}

double TmaxModel::stretch(double demand_sum) const {
  if (demand_sum <= 1.0) return 1.0;
  return demand_sum * (1.0 + beta_ * (demand_sum - 1.0));
}

DurationMs TmaxModel::t_max_ms(const WorkloadPoint& point, int y) const {
  y = std::clamp(y, 0, point.n_requests);
  const double queued =
      point.solo_ms * static_cast<double>(y) / static_cast<double>(point.batch_size);
  if (y == point.n_requests) {
    return queued;  // pure time sharing: last batch ends after N/BS batches
  }
  const double spatial =
      point.solo_ms * std::max(stretch(fbr_sum(point, y)),
                               stretch(compute_sum(point, y)));
  return queued + spatial;
}

std::optional<std::pair<int, int>> TmaxModel::optimal_range(
    const WorkloadPoint& point) const {
  if (point.n_requests <= 0 || point.fbr <= 0.0) return std::nullopt;
  // Constraint (ii): ((N - y) / BS) * FBR > 1  =>  y < N - BS / FBR.
  const double limit = point.n_requests - point.batch_size / point.fbr;
  const int hi = static_cast<int>(std::ceil(limit)) - 1;
  if (hi < 0) return std::nullopt;
  return std::make_pair(0, std::min(hi, point.n_requests - 1));
}

}  // namespace paldia::perfmodel
