#include "src/common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "tests/pinned_cpu.hpp"

namespace paldia {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ParallelForZeroItems) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForSingleItemRunsInline) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.parallel_for(1, [&](std::size_t) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, SingleWorkerFallsBackToCaller) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  pool.parallel_for(seen.size(),
                    [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, MinReductionDeterministicAcrossPoolSizes) {
  // The y-sweep use case: results must not depend on worker count.
  std::vector<double> values(503);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 1000.0 - 3.0 * static_cast<double>(i % 97);
  }
  auto run = [&](std::size_t workers) {
    ThreadPool pool(workers);
    std::vector<double> out(values.size());
    pool.parallel_for(values.size(), [&](std::size_t i) { out[i] = values[i] * 2.0; });
    return *std::min_element(out.begin(), out.end());
  };
  const double expected = run(1);
  EXPECT_EQ(run(2), expected);
  EXPECT_EQ(run(4), expected);
  EXPECT_EQ(run(8), expected);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for(50, [&](std::size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 250);
}

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // The selection -> y-sweep shape: every outer task re-enters the same
  // pool. With batch-global completion tracking this deadlocked (the inner
  // wait counted the caller's own still-running task).
  ThreadPool pool(4);
  std::atomic<int> inner_hits{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(64, [&](std::size_t) { inner_hits.fetch_add(1); });
  });
  EXPECT_EQ(inner_hits.load(), 8 * 64);
}

TEST(ThreadPool, DeeplyNestedParallelFor) {
  ThreadPool pool(3);
  std::atomic<int> leaves{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) {
      pool.parallel_for(4, [&](std::size_t) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 4 * 4 * 4);
}

TEST(ThreadPool, NestedResultsLandInFixedSlots) {
  ThreadPool pool(4);
  std::vector<std::vector<int>> grid(16, std::vector<int>(100, -1));
  pool.parallel_for(grid.size(), [&](std::size_t i) {
    pool.parallel_for(grid[i].size(), [&](std::size_t j) {
      grid[i][j] = static_cast<int>(i * 1000 + j);
    });
  });
  for (std::size_t i = 0; i < grid.size(); ++i) {
    for (std::size_t j = 0; j < grid[i].size(); ++j) {
      ASSERT_EQ(grid[i][j], static_cast<int>(i * 1000 + j));
    }
  }
}

TEST(ThreadPool, ConcurrentTopLevelCallersAreIsolated) {
  // Two external threads drive independent parallel_for batches on one
  // pool; each caller must see exactly its own batch complete (the old
  // global in_flight_ counter let one caller return on the other's work).
  ThreadPool pool(4);
  constexpr int kRounds = 25;
  constexpr std::size_t kItems = 64;
  auto driver = [&](std::atomic<int>& counter) {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<int> slots(kItems, 0);
      pool.parallel_for(kItems, [&](std::size_t i) { slots[i] = 1; });
      int sum = 0;
      for (int s : slots) sum += s;
      // parallel_for returned, so every slot of *this* batch must be set.
      ASSERT_EQ(sum, static_cast<int>(kItems));
      counter.fetch_add(sum);
    }
  };
  std::atomic<int> a{0}, b{0};
  std::thread ta([&] { driver(a); });
  std::thread tb([&] { driver(b); });
  ta.join();
  tb.join();
  EXPECT_EQ(a.load(), kRounds * static_cast<int>(kItems));
  EXPECT_EQ(b.load(), kRounds * static_cast<int>(kItems));
}

TEST(ThreadPool, SubmitInsideTaskThenWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&pool, &counter] {
      counter.fetch_add(1);
      pool.submit([&counter] { counter.fetch_add(1); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, ForEachConcurrentlyRunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  for_each_concurrently(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ForEachConcurrentlyZeroItemsMakesNoCall) {
  for_each_concurrently(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ForEachConcurrentlyPinnedToOneCpuRunsInOrderOnTheCaller) {
  PinnedToOneCpu pin;
  ASSERT_TRUE(pin.ok());
  ASSERT_EQ(usable_cpus(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  std::vector<std::thread::id> threads;
  for_each_concurrently(16, [&](std::size_t i) {
    order.push_back(i);
    threads.push_back(std::this_thread::get_id());
  });
  std::vector<std::size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
  for (const auto& id : threads) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ForEachConcurrentlyRethrowsTheLowestIndexAfterTheJoin) {
  // Index 2 throws at 20 ms, index 1 at 60 ms, so no further index is
  // claimed after the first four. The other two return after 100 ms on the
  // caller and 200 ms on a worker: whichever index the caller holds, it is
  // done while a worker is still busy (on two or more CPUs), and index 1's
  // exception must still be the one rethrown, after that worker returns.
  const auto caller = std::this_thread::get_id();
  std::atomic<int> running{0};
  try {
    for_each_concurrently(8, [&](std::size_t i) {
      ++running;
      struct Leave {
        std::atomic<int>& running;
        ~Leave() { --running; }
      } leave{running};
      const auto sleep = [](int ms) {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      };
      if (i == 1 || i == 2) {
        sleep(i == 1 ? 60 : 20);
        throw std::runtime_error("index " + std::to_string(i));
      }
      sleep(std::this_thread::get_id() == caller ? 100 : 200);
    });
    FAIL() << "for_each_concurrently returned normally";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "index 1");
    EXPECT_EQ(running.load(), 0);
  }
}

}  // namespace
}  // namespace paldia
