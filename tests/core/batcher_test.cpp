#include "src/core/batcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.hpp"

namespace paldia::core {
namespace {

cluster::RequestBlock make_requests(int n) {
  static cluster::RequestArena arena;
  cluster::RequestBlock requests = arena.acquire();
  for (int i = 0; i < n; ++i) {
    cluster::Request request;
    request.id = RequestId{i};
    request.model = models::ModelId::kResNet50;
    request.arrival_ms = i;
    requests.push_back(request);
  }
  return requests;
}

TEST(Batcher, DispatchesWhenBatchFull) {
  Batcher batcher;
  EXPECT_TRUE(batcher.should_dispatch(64, 64, 0.0));
  EXPECT_TRUE(batcher.should_dispatch(100, 64, 0.0));
  EXPECT_FALSE(batcher.should_dispatch(63, 64, 0.0));
}

TEST(Batcher, DispatchesWhenOldestAgesOut) {
  Batcher batcher(BatcherConfig{.max_wait_ms = 50.0});
  EXPECT_FALSE(batcher.should_dispatch(1, 64, 49.0));
  EXPECT_TRUE(batcher.should_dispatch(1, 64, 50.0));
}

TEST(Batcher, NeverDispatchesEmptyQueue) {
  Batcher batcher;
  EXPECT_FALSE(batcher.should_dispatch(0, 64, 1000.0));
}

TEST(Batcher, ChunksIntoFlexibleBatches) {
  Batcher batcher;
  cluster::IdAllocator ids;
  const auto batches = batcher.chunk(make_requests(150), 64, 10.0, ids);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].size(), 64);
  EXPECT_EQ(batches[1].size(), 64);
  EXPECT_EQ(batches[2].size(), 22);  // flexible final batch
  for (const auto& batch : batches) {
    EXPECT_EQ(batch.formed_ms, 10.0);
    EXPECT_EQ(batch.model, models::ModelId::kResNet50);
  }
}

TEST(Batcher, ChunkPreservesRequestOrder) {
  Batcher batcher;
  cluster::IdAllocator ids;
  const auto batches = batcher.chunk(make_requests(10), 4, 0.0, ids);
  std::int64_t expected = 0;
  for (const auto& batch : batches) {
    for (const auto& request : batch.requests) {
      EXPECT_EQ(request.id.value, expected++);
    }
  }
}

TEST(Batcher, ChunkEmptyInput) {
  Batcher batcher;
  cluster::IdAllocator ids;
  EXPECT_TRUE(batcher.chunk({}, 64, 0.0, ids).empty());
}

TEST(Batcher, ChunkClampsNonPositiveBatchSize) {
  Batcher batcher;
  cluster::IdAllocator ids;
  const auto batches = batcher.chunk(make_requests(3), 0, 0.0, ids);
  EXPECT_EQ(batches.size(), 3u);  // batch size clamped to 1
}

TEST(Batcher, BatchIdsUnique) {
  Batcher batcher;
  cluster::IdAllocator ids;
  auto first = batcher.chunk(make_requests(10), 2, 0.0, ids);
  auto second = batcher.chunk(make_requests(10), 2, 0.0, ids);
  std::set<std::int64_t> seen;
  for (const auto& batch : first) seen.insert(batch.id.value);
  for (const auto& batch : second) seen.insert(batch.id.value);
  EXPECT_EQ(seen.size(), first.size() + second.size());
}

// Brute force for first_dispatch_slot: scan the grid through
// should_dispatch with the gateway's pending count and oldest age.
std::int64_t scan_first_dispatch_slot(const Batcher& batcher,
                                      const std::vector<double>& arrivals,
                                      int target, std::int64_t first_slot,
                                      DurationMs period_ms) {
  for (std::int64_t k = first_slot; k < first_slot + 10'000; ++k) {
    const TimeMs now = static_cast<double>(k) * period_ms;
    const int pending = static_cast<int>(
        std::upper_bound(arrivals.begin(), arrivals.end(), now) - arrivals.begin());
    const DurationMs age =
        arrivals.empty() || arrivals.front() > now ? 0.0 : now - arrivals.front();
    if (batcher.should_dispatch(pending, target, age)) return k;
  }
  return Batcher::kNoSlot;
}

TEST(Batcher, FirstDispatchSlotMatchesGridScan) {
  constexpr DurationMs kPeriod = 20.0;
  Rng rng(20'240'611);
  for (int trial = 0; trial < 4'000; ++trial) {
    const double waits[] = {50.0, 0.0, 13.7, 40.0, rng.uniform(0.0, 90.0)};
    const DurationMs max_wait = waits[rng.uniform_int(0, 4)];
    const Batcher batcher(BatcherConfig{.max_wait_ms = max_wait});
    // Arrivals on grid instants, at grid instants less the wait (the
    // oldest ages out exactly on the grid), and anywhere in between.
    std::vector<double> arrivals(static_cast<std::size_t>(rng.uniform_int(0, 12)));
    for (auto& arrival : arrivals) {
      const double grid = static_cast<double>(rng.uniform_int(0, 30)) * kPeriod;
      switch (rng.uniform_int(0, 2)) {
        case 0: arrival = grid; break;
        case 1: arrival = std::max(0.0, grid - max_wait); break;
        default: arrival = rng.uniform(0.0, 600.0); break;
      }
    }
    std::sort(arrivals.begin(), arrivals.end());
    const int target = static_cast<int>(rng.uniform_int(1, 16));
    const std::int64_t first_slot = rng.uniform_int(0, 40);
    const TimeMs oldest = arrivals.empty() ? kTimeNever : arrivals.front();
    const TimeMs target_arrival =
        static_cast<std::size_t>(target) <= arrivals.size()
            ? arrivals[static_cast<std::size_t>(target - 1)]
            : kTimeNever;
    ASSERT_EQ(batcher.first_dispatch_slot(first_slot, kPeriod, oldest, target_arrival),
              scan_first_dispatch_slot(batcher, arrivals, target, first_slot, kPeriod))
        << "trial " << trial << " max_wait " << max_wait << " target " << target
        << " first_slot " << first_slot << " queued " << arrivals.size();
  }
}

TEST(Batcher, FirstDispatchSlotOfEmptyQueueIsNone) {
  const Batcher batcher;
  EXPECT_EQ(batcher.first_dispatch_slot(3, 20.0, kTimeNever, kTimeNever),
            Batcher::kNoSlot);
}

TEST(Batch, OldestArrival) {
  Batcher batcher;
  cluster::IdAllocator ids;
  auto batches = batcher.chunk(make_requests(5), 5, 0.0, ids);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].oldest_arrival_ms(), 0.0);
}

}  // namespace
}  // namespace paldia::core
