#include "src/core/gateway.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

namespace paldia::core {
namespace {

constexpr auto kModel = models::ModelId::kResNet50;

TEST(Gateway, InjectedRequestsBecomeVisibleByArrivalTime) {
  Gateway gateway(Rng(1));
  gateway.add_workload(kModel);
  gateway.inject(kModel, 10, 0.0, 100.0);
  EXPECT_EQ(gateway.pending_total(kModel), 10);
  // Not all have "arrived" at t = 1 (offsets spread over [0, 100)).
  EXPECT_LE(gateway.pending(kModel, 1.0), 10);
  EXPECT_EQ(gateway.pending(kModel, 100.0), 10);
}

TEST(Gateway, TakeRespectsArrivalOrderAndTime) {
  Gateway gateway(Rng(2));
  gateway.add_workload(kModel);
  gateway.inject(kModel, 20, 0.0, 100.0);
  const auto taken = gateway.take(kModel, 50, 100.0);
  ASSERT_EQ(taken.size(), 20u);
  for (std::size_t i = 1; i < taken.size(); ++i) {
    EXPECT_LE(taken[i - 1].arrival_ms, taken[i].arrival_ms);
  }
  EXPECT_EQ(gateway.pending(kModel, 100.0), 0);
}

TEST(Gateway, TakeHonoursMaxCount) {
  Gateway gateway(Rng(3));
  gateway.add_workload(kModel);
  gateway.inject(kModel, 10, 0.0, 1.0);
  const auto first = gateway.take(kModel, 4, 10.0);
  EXPECT_EQ(first.size(), 4u);
  EXPECT_EQ(gateway.pending(kModel, 10.0), 6);
}

TEST(Gateway, RequestIdsUnique) {
  Gateway gateway(Rng(4));
  gateway.add_workload(kModel);
  gateway.inject(kModel, 100, 0.0, 1.0);
  auto taken = gateway.take(kModel, 100, 10.0);
  std::set<std::int64_t> ids;
  for (const auto& request : taken) ids.insert(request.id.value);
  EXPECT_EQ(ids.size(), 100u);
}

TEST(Gateway, QueuedArrivalIndexesTheWholeQueueOldestFirst) {
  Gateway gateway(Rng(6));
  gateway.add_workload(kModel);
  EXPECT_EQ(gateway.queued_arrival(kModel, 0), kTimeNever);
  gateway.inject(kModel, 8, 100.0, 100.0);
  const auto taken = gateway.take(kModel, 3, 200.0);
  gateway.inject(kModel, 5, 200.0, 100.0);  // none has arrived at t = 200
  ASSERT_EQ(gateway.pending_total(kModel), 10);
  EXPECT_LE(taken[2].arrival_ms, gateway.queued_arrival(kModel, 0));
  for (std::size_t i = 1; i < 10; ++i) {
    EXPECT_LE(gateway.queued_arrival(kModel, i - 1), gateway.queued_arrival(kModel, i));
  }
  EXPECT_LT(gateway.queued_arrival(kModel, 4), 200.0);
  EXPECT_GE(gateway.queued_arrival(kModel, 5), 200.0);
  EXPECT_EQ(gateway.queued_arrival(kModel, 10), kTimeNever);
}

TEST(Gateway, OldestAge) {
  Gateway gateway(Rng(5));
  gateway.add_workload(kModel);
  EXPECT_EQ(gateway.oldest_age(kModel, 100.0), 0.0);
  gateway.inject(kModel, 1, 0.0, 1.0);
  EXPECT_NEAR(gateway.oldest_age(kModel, 50.0), 50.0, 1.0);
}

TEST(Gateway, RequeuePreservesArrivalAndReorders) {
  Gateway gateway(Rng(6));
  gateway.add_workload(kModel);
  gateway.inject(kModel, 5, 0.0, 1.0);
  auto taken = gateway.take(kModel, 5, 10.0);
  gateway.inject(kModel, 5, 100.0, 1.0);
  gateway.requeue(kModel, std::move(taken));  // failed batch comes back
  const auto again = gateway.take(kModel, 10, 200.0);
  ASSERT_EQ(again.size(), 10u);
  // The re-queued (older) requests must come out first.
  EXPECT_LT(again.front().arrival_ms, 10.0);
  for (std::size_t i = 1; i < again.size(); ++i) {
    EXPECT_LE(again[i - 1].arrival_ms, again[i].arrival_ms);
  }
}

TEST(Gateway, SortedByArrivalInvariantSurvivesRepeatedRequeueAfterFailure) {
  // Failure-injector shape: batches are taken, fail mid-flight, and come
  // back through requeue() while fresh arrivals keep landing. The queue's
  // sorted-by-arrival invariant (which take()/pending() binary-search on)
  // must hold through arbitrarily many such cycles, with no request lost.
  Gateway gateway(Rng(42));
  gateway.add_workload(kModel);
  std::set<std::int64_t> expected_ids;
  gateway.inject(kModel, 16, 0.0, 50.0);
  for (int cycle = 0; cycle < 8; ++cycle) {
    const TimeMs now = 100.0 * (cycle + 1);
    auto doomed = gateway.take(kModel, 7, now);
    gateway.inject(kModel, 4, now, 50.0);  // fresh arrivals mid-failure
    gateway.requeue(kModel, std::move(doomed));
  }
  const int total = 16 + 8 * 4;
  EXPECT_EQ(gateway.pending_total(kModel), total);
  auto drained = gateway.take(kModel, total, 10'000.0);
  ASSERT_EQ(drained.size(), static_cast<std::size_t>(total));
  for (std::size_t i = 0; i < drained.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(drained[i - 1].arrival_ms, drained[i].arrival_ms) << i;
    }
    expected_ids.insert(drained[i].id.value);
  }
  EXPECT_EQ(expected_ids.size(), static_cast<std::size_t>(total));  // none lost
}

TEST(Gateway, ObservedRateTracksInjections) {
  Gateway gateway(Rng(7));
  gateway.add_workload(kModel);
  // 50 arrivals inside the trailing 1 s window -> 50 rps.
  gateway.inject(kModel, 50, 0.0, 500.0);
  EXPECT_NEAR(gateway.observed_rate(kModel, 500.0), 50.0, 5.0);
  // Window slides: half a second later some arrivals are still in window.
  EXPECT_NEAR(gateway.observed_rate(kModel, 1000.0), 50.0, 15.0);
  EXPECT_EQ(gateway.observed_rate(kModel, 2000.0), 0.0);
}

TEST(Gateway, MultipleWorkloadsIsolated) {
  Gateway gateway(Rng(8));
  gateway.add_workload(models::ModelId::kResNet50);
  gateway.add_workload(models::ModelId::kSeNet18);
  gateway.inject(models::ModelId::kResNet50, 5, 0.0, 1.0);
  EXPECT_EQ(gateway.pending_total(models::ModelId::kResNet50), 5);
  EXPECT_EQ(gateway.pending_total(models::ModelId::kSeNet18), 0);
}

TEST(Gateway, AddWorkloadIdempotent) {
  Gateway gateway(Rng(9));
  gateway.add_workload(kModel);
  gateway.add_workload(kModel);
  EXPECT_EQ(gateway.workloads().size(), 1u);
}

TEST(Gateway, ZeroCountInjectIsNoop) {
  Gateway gateway(Rng(10));
  gateway.add_workload(kModel);
  gateway.inject(kModel, 0, 0.0, 100.0);
  EXPECT_EQ(gateway.pending_total(kModel), 0);
}

TEST(Gateway, FleetFanInRandomizedAgainstReferenceModel) {
  // Fleet fan-in shape: many models on one gateway under a random
  // interleaving of inject / take / requeue (batches held in flight come
  // back after simulated failures) while the clock only moves forward.
  // Cross-checked against a reference count model per model, plus the
  // queue invariants every consumer depends on:
  //   * take() returns arrival-sorted requests, all arrived (<= now);
  //   * an uncapped take drains everything arrived (oldest-first implies
  //     nothing arrived may linger behind);
  //   * pending_total == injected + requeued - taken, nothing lost or
  //     duplicated (ids conserved through requeue).
  const std::vector<models::ModelId> kModels = {
      models::ModelId::kResNet50, models::ModelId::kMobileNet,
      models::ModelId::kBert, models::ModelId::kAlbert,
      models::ModelId::kShuffleNetV2};
  Gateway gateway(Rng(11));
  std::vector<std::int64_t> injected(kModels.size(), 0);
  std::vector<std::int64_t> drained(kModels.size(), 0);
  // Injection epochs per model advance monotonically and never overlap —
  // the trace-driven contract inject() relies on to append in arrival
  // order (arrivals inside one epoch are sorted by the gateway itself).
  std::vector<double> epoch_cursor(kModels.size(), 0.0);
  std::vector<std::vector<cluster::RequestBlock>> in_flight(kModels.size());
  std::vector<std::set<std::int64_t>> seen_ids(kModels.size());
  for (const auto model : kModels) gateway.add_workload(model);

  std::mt19937_64 rng(2024);
  double now = 0.0;
  for (int step = 0; step < 2000; ++step) {
    const std::size_t m = rng() % kModels.size();
    const auto model = kModels[m];
    switch (rng() % 4) {
      case 0: {  // inject the model's next trace epoch
        const int count = static_cast<int>(rng() % 20);
        const double epoch = 1.0 + static_cast<double>(rng() % 50);
        epoch_cursor[m] = std::max(epoch_cursor[m], now);
        gateway.inject(model, count, epoch_cursor[m], epoch);
        epoch_cursor[m] += epoch;
        injected[m] += count;
        break;
      }
      case 1: {  // take a capped batch
        now += static_cast<double>(rng() % 10);
        const int max_count = 1 + static_cast<int>(rng() % 8);
        auto block = gateway.take(model, max_count, now);
        ASSERT_LE(static_cast<int>(block.size()), max_count);
        for (std::size_t i = 0; i < block.size(); ++i) {
          ASSERT_LE(block[i].arrival_ms, now);
          if (i > 0) {
            ASSERT_LE(block[i - 1].arrival_ms, block[i].arrival_ms);
          }
          seen_ids[m].insert(block[i].id.value);
        }
        drained[m] += static_cast<std::int64_t>(block.size());
        if (!block.empty() && rng() % 2 == 0) {
          in_flight[m].push_back(std::move(block));  // fails later, requeues
          drained[m] -= static_cast<std::int64_t>(in_flight[m].back().size());
        }
        break;
      }
      case 2: {  // a held batch comes back (failure path)
        if (!in_flight[m].empty()) {
          auto block = std::move(in_flight[m].back());
          in_flight[m].pop_back();
          gateway.requeue(model, std::move(block));
        }
        break;
      }
      default: {  // uncapped take must drain everything arrived
        now += static_cast<double>(rng() % 5);
        auto block = gateway.take(model, 1 << 20, now);
        for (std::size_t i = 0; i < block.size(); ++i) {
          ASSERT_LE(block[i].arrival_ms, now);
          if (i > 0) {
            ASSERT_LE(block[i - 1].arrival_ms, block[i].arrival_ms);
          }
          seen_ids[m].insert(block[i].id.value);
        }
        drained[m] += static_cast<std::int64_t>(block.size());
        EXPECT_EQ(gateway.pending(model, now), 0);
        break;
      }
    }
    std::int64_t held = 0;
    for (const auto& block : in_flight[m]) {
      held += static_cast<std::int64_t>(block.size());
    }
    ASSERT_EQ(gateway.pending_total(model), injected[m] - drained[m] - held)
        << "model " << static_cast<int>(model) << " step " << step;
  }

  // Final drain: requeue everything still held, then empty each queue and
  // check conservation — every injected request comes out exactly once.
  now += 1000.0;
  for (std::size_t m = 0; m < kModels.size(); ++m) {
    for (auto& block : in_flight[m]) {
      gateway.requeue(kModels[m], std::move(block));
    }
    in_flight[m].clear();
    auto block = gateway.take(kModels[m], 1 << 20, now);
    for (std::size_t i = 0; i < block.size(); ++i) {
      if (i > 0) {
        ASSERT_LE(block[i - 1].arrival_ms, block[i].arrival_ms);
      }
      seen_ids[m].insert(block[i].id.value);
    }
    drained[m] += static_cast<std::int64_t>(block.size());
    EXPECT_EQ(gateway.pending_total(kModels[m]), 0);
    EXPECT_EQ(drained[m], injected[m]);
    EXPECT_EQ(seen_ids[m].size(), static_cast<std::size_t>(injected[m]));
  }
}

}  // namespace
}  // namespace paldia::core
