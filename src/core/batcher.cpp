#include "src/core/batcher.hpp"

#include <algorithm>
#include <cmath>

#include "src/obs/tracer.hpp"

namespace paldia::core {

namespace {

/// The smallest k >= first with holds(k), for a predicate monotone in k.
/// `estimate` is the real-valued k at which it starts to hold; rounding
/// puts ceil(estimate) at most a step or two from the exact answer, which
/// the walks settle. kNoSlot when the estimate is past the grid's exact
/// range (or infinite).
template <typename Holds>
std::int64_t first_slot_where(std::int64_t first, double estimate, Holds holds) {
  // Beyond 2^52 grid slots k * period is no longer exact; no run gets there.
  if (!(estimate < 0x1p52)) return Batcher::kNoSlot;
  std::int64_t k = static_cast<std::int64_t>(
      std::ceil(std::max(estimate, static_cast<double>(first))));
  while (k > first && holds(k - 1)) --k;
  while (!holds(k)) ++k;
  return k;
}

}  // namespace

bool Batcher::should_dispatch(int pending, int max_batch,
                              DurationMs oldest_age_ms) const {
  if (pending <= 0) return false;
  if (pending >= max_batch) return true;
  return oldest_age_ms >= config_.max_wait_ms;
}

std::int64_t Batcher::first_dispatch_slot(std::int64_t first_slot,
                                          DurationMs period_ms,
                                          TimeMs oldest_arrival_ms,
                                          TimeMs target_arrival_ms) const {
  const auto at = [period_ms](std::int64_t k) {
    return static_cast<double>(k) * period_ms;
  };
  const std::int64_t filled = first_slot_where(
      first_slot, target_arrival_ms / period_ms,
      [&](std::int64_t k) { return target_arrival_ms <= at(k); });
  const std::int64_t aged = first_slot_where(
      first_slot, (oldest_arrival_ms + config_.max_wait_ms) / period_ms,
      [&](std::int64_t k) {
        return oldest_arrival_ms <= at(k) &&
               at(k) - oldest_arrival_ms >= config_.max_wait_ms;
      });
  return std::min(filled, aged);
}

void Batcher::chunk_into(const cluster::Request* requests, std::size_t count,
                         int batch_size, TimeMs now, cluster::IdAllocator& ids,
                         cluster::RequestArena& arena,
                         std::vector<cluster::Batch>* out) const {
  if (count == 0) return;
  batch_size = std::max(1, batch_size);
  std::size_t formed = 0;
  std::size_t begin = 0;
  while (begin < count) {
    const std::size_t end = std::min(count, begin + static_cast<std::size_t>(batch_size));
    cluster::Batch batch;
    batch.id = ids.next_batch();
    batch.model = requests[begin].model;
    batch.formed_ms = now;
    batch.requests = arena.acquire();
    batch.requests.append(requests + begin, end - begin);
    out->push_back(std::move(batch));
    ++formed;
    begin = end;
  }
  if (tracer_ != nullptr) {
    tracer_->count("batches_formed", static_cast<double>(formed));
    tracer_->count("batched_requests", static_cast<double>(count));
  }
}

std::vector<cluster::Batch> Batcher::chunk(cluster::RequestBlock requests,
                                           int batch_size, TimeMs now,
                                           cluster::IdAllocator& ids) const {
  std::vector<cluster::Batch> batches;
  if (requests.empty()) return batches;
  cluster::RequestArena* arena = requests.arena();
  batches.reserve((requests.size() + static_cast<std::size_t>(std::max(1, batch_size)) - 1) /
                  static_cast<std::size_t>(std::max(1, batch_size)));
  chunk_into(requests.data(), requests.size(), batch_size, now, ids, *arena, &batches);
  return batches;
}

}  // namespace paldia::core
