#include "src/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"

namespace paldia::sim {
namespace {

TEST(Simulator, ClockStartsAtZero) {
  Simulator simulator;
  EXPECT_EQ(simulator.now(), 0.0);
}

TEST(Simulator, ScheduleInAdvancesClock) {
  Simulator simulator;
  TimeMs fired_at = -1.0;
  simulator.schedule_in(100.0, [&] { fired_at = simulator.now(); });
  simulator.run_to_completion();
  EXPECT_EQ(fired_at, 100.0);
  EXPECT_EQ(simulator.now(), 100.0);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator simulator;
  simulator.schedule_in(50.0, [&] {
    simulator.schedule_in(-10.0, [&] { EXPECT_EQ(simulator.now(), 50.0); });
  });
  simulator.run_to_completion();
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule_at(10.0, [&] { ++fired; });
  simulator.schedule_at(20.0, [&] { ++fired; });
  simulator.schedule_at(30.0, [&] { ++fired; });
  simulator.run_until(20.0);  // events exactly at the boundary run
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(simulator.now(), 20.0);
  simulator.run_to_completion();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator simulator;
  simulator.run_until(500.0);
  EXPECT_EQ(simulator.now(), 500.0);
}

TEST(Simulator, EventsScheduleMoreEvents) {
  Simulator simulator;
  std::vector<TimeMs> firings;
  std::function<void()> chain = [&] {
    firings.push_back(simulator.now());
    if (firings.size() < 5) simulator.schedule_in(10.0, chain);
  };
  simulator.schedule_at(0.0, chain);
  simulator.run_to_completion();
  EXPECT_EQ(firings, (std::vector<TimeMs>{0.0, 10.0, 20.0, 30.0, 40.0}));
}

TEST(Simulator, PeriodicFiresAtPeriod) {
  Simulator simulator;
  std::vector<TimeMs> firings;
  simulator.schedule_every(100.0, 50.0, [&] { firings.push_back(simulator.now()); });
  simulator.run_until(300.0);
  EXPECT_EQ(firings, (std::vector<TimeMs>{100.0, 150.0, 200.0, 250.0, 300.0}));
}

TEST(Simulator, PeriodicCancelStopsSeries) {
  Simulator simulator;
  int fired = 0;
  auto handle = simulator.schedule_every(0.0, 10.0, [&] { ++fired; });
  simulator.run_until(25.0);
  EXPECT_EQ(fired, 3);  // t = 0, 10, 20
  handle.cancel();
  simulator.run_until(100.0);
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator simulator;
  bool fired = false;
  auto handle = simulator.schedule_in(10.0, [&] { fired = true; });
  handle.cancel();
  simulator.run_to_completion();
  EXPECT_FALSE(fired);
}

TEST(Simulator, EventsProcessedCount) {
  Simulator simulator;
  for (int i = 0; i < 7; ++i) simulator.schedule_in(i, [] {});
  simulator.run_to_completion();
  EXPECT_EQ(simulator.events_processed(), 7u);
}

TEST(Simulator, ResetClearsEverything) {
  Simulator simulator;
  bool fired = false;
  simulator.schedule_in(10.0, [&] { fired = true; });
  simulator.reset();
  simulator.run_to_completion();
  EXPECT_FALSE(fired);
  EXPECT_EQ(simulator.now(), 0.0);
  EXPECT_EQ(simulator.events_processed(), 0u);
}

TEST(Simulator, RepeatingStopsWhenCallbackReturnsFalse) {
  Simulator simulator;
  std::vector<TimeMs> firings;
  simulator.schedule_repeating(10.0, 10.0, [&] {
    firings.push_back(simulator.now());
    return firings.size() < 3;  // stop after the third firing
  });
  simulator.run_to_completion();
  EXPECT_EQ(firings, (std::vector<TimeMs>{10.0, 20.0, 30.0}));
}

TEST(Simulator, StalePeriodicHandleAfterRecycleIsNoOp) {
  // A series that stopped on its own releases its pooled slot; the next
  // series reuses it. A cancel through the old handle must not stop the new
  // occupant (generation check).
  Simulator simulator;
  int first = 0;
  auto stale = simulator.schedule_repeating(0.0, 10.0, [&] {
    ++first;
    return false;  // one firing, then the slot is recycled
  });
  simulator.run_to_completion();
  EXPECT_EQ(first, 1);

  int second = 0;
  simulator.schedule_every(10.0, 10.0, [&] { ++second; });
  stale.cancel();  // old generation: must not touch the recycled slot
  simulator.run_until(45.0);
  EXPECT_EQ(second, 4);  // t = 10, 20, 30, 40 — still alive
}

TEST(Simulator, PeriodicCancelTwiceIsHarmless) {
  Simulator simulator;
  int fired = 0;
  auto handle = simulator.schedule_every(0.0, 10.0, [&] { ++fired; });
  simulator.run_until(15.0);
  handle.cancel();
  handle.cancel();
  auto copy = handle;
  copy.cancel();
  simulator.run_until(100.0);
  EXPECT_EQ(fired, 2);  // t = 0, 10
}

TEST(Simulator, ResetInvalidatesPeriodicHandles) {
  Simulator simulator;
  int old_series = 0;
  auto handle = simulator.schedule_every(0.0, 10.0, [&] { ++old_series; });
  simulator.reset();

  int new_series = 0;
  simulator.schedule_every(0.0, 10.0, [&] { ++new_series; });
  handle.cancel();  // pre-reset generation: no-op on the recycled slot
  simulator.run_until(25.0);
  EXPECT_EQ(old_series, 0);
  EXPECT_EQ(new_series, 3);  // t = 0, 10, 20
}

TEST(Simulator, ManyConcurrentPeriodicSeries) {
  // More series than the initial pool: slots grow, series interleave, and
  // each fires on its own phase. Cancels mid-run release slots for reuse.
  Simulator simulator;
  constexpr int kSeries = 64;
  std::vector<int> counts(kSeries, 0);
  std::vector<Simulator::PeriodicHandle> handles;
  handles.reserve(kSeries);
  for (int i = 0; i < kSeries; ++i) {
    handles.push_back(
        simulator.schedule_every(0.5 * static_cast<TimeMs>(i), 100.0,
                                 [&counts, i] { ++counts[i]; }));
  }
  simulator.run_until(350.0);
  for (int i = 0; i < kSeries; ++i) EXPECT_EQ(counts[i], 4) << i;
  for (int i = 0; i < kSeries; i += 2) handles[i].cancel();
  simulator.run_until(550.0);
  for (int i = 0; i < kSeries; ++i) EXPECT_EQ(counts[i], i % 2 == 0 ? 4 : 6) << i;
}

TEST(Simulator, SameTimeEventsRunInSubmissionOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_at(5.0, [&] { order.push_back(1); });
  simulator.schedule_at(5.0, [&] { order.push_back(2); });
  simulator.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// --- Randomized check against a reference model ---------------------------

/// Independent model of the Simulator contract: pending entries in a plain
/// vector, the earliest live (time, sequence) entry found by a linear scan,
/// cancel as a flag, and repeating series re-armed by hand after each
/// firing. Nothing is pooled or recycled, so a handle can only ever reach
/// the one entry it was made for.
class ReferenceSimulator {
 public:
  class EventHandle {
   public:
    void cancel() {
      if (owner_ != nullptr) owner_->cancel(sequence_);
    }

   private:
    friend class ReferenceSimulator;
    EventHandle(ReferenceSimulator* owner, std::uint64_t sequence)
        : owner_(owner), sequence_(sequence) {}
    ReferenceSimulator* owner_ = nullptr;
    std::uint64_t sequence_ = 0;
  };

  class PeriodicHandle {
   public:
    void cancel() {
      if (owner_ != nullptr) owner_->series_[index_].active = false;
    }

   private:
    friend class ReferenceSimulator;
    PeriodicHandle(ReferenceSimulator* owner, std::size_t index)
        : owner_(owner), index_(index) {}
    ReferenceSimulator* owner_ = nullptr;
    std::size_t index_ = 0;
  };

  TimeMs now() const { return now_; }
  std::size_t events_processed() const { return events_processed_; }

  EventHandle schedule_in(DurationMs delay, std::function<void()> fn) {
    return schedule_at(now_ + std::max(0.0, delay), std::move(fn));
  }

  EventHandle schedule_at(TimeMs t, std::function<void()> fn) {
    pending_.push_back(
        Pending{std::max(t, now_), next_sequence_, std::move(fn), true});
    return EventHandle(this, next_sequence_++);
  }

  PeriodicHandle schedule_repeating(TimeMs start, DurationMs period,
                                    std::function<bool()> fn) {
    const std::size_t index = series_.size();
    series_.push_back(Series{std::move(fn), period, true});
    schedule_at(start, [this, index] { fire_series(index); });
    return PeriodicHandle(this, index);
  }

  TimeMs run_until(TimeMs until) {
    drain(until);
    now_ = std::max(now_, until);
    return now_;
  }

  TimeMs run_to_completion() {
    drain(kTimeNever);
    return now_;
  }

 private:
  struct Pending {
    TimeMs time;
    std::uint64_t sequence;
    std::function<void()> fn;
    bool live;
  };
  struct Series {
    std::function<bool()> fn;
    DurationMs period;
    bool active;
  };

  void cancel(std::uint64_t sequence) {
    for (Pending& pending : pending_) {
      if (pending.sequence == sequence) pending.live = false;
    }
  }

  /// The armed entry of a cancelled series still fires (and counts) as a
  /// no-op, as in Simulator.
  void fire_series(std::size_t index) {
    Series& series = series_[index];  // a deque: stable across push_back
    if (!series.active) return;
    const bool keep = series.fn();
    if (!series.active) return;  // the callback cancelled its own series
    if (keep) {
      schedule_in(series.period, [this, index] { fire_series(index); });
    } else {
      series.active = false;
    }
  }

  void drain(TimeMs until) {
    while (true) {
      std::erase_if(pending_,
                    [](const Pending& pending) { return !pending.live; });
      auto next = pending_.begin();
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->time < next->time ||
            (it->time == next->time && it->sequence < next->sequence)) {
          next = it;
        }
      }
      if (next == pending_.end() || next->time > until) return;
      Pending fired = std::move(*next);
      pending_.erase(next);
      now_ = fired.time;
      ++events_processed_;
      fired.fn();
    }
  }

  std::vector<Pending> pending_;
  std::deque<Series> series_;
  std::uint64_t next_sequence_ = 0;
  TimeMs now_ = 0.0;
  std::size_t events_processed_ = 0;
};

using FiringLog = std::vector<std::pair<TimeMs, int>>;

/// Deterministic random workload: every fired event logs (now, tag) and may
/// schedule children, cancel a saved handle (which may have fired already,
/// its slot recycled), cancel a periodic series, or chain zero-delay
/// follow-ups. The script consumes its Rng in firing order, so any ordering
/// divergence between two simulators cascades into visibly different logs.
template <typename Sim>
class ChurnDriver {
 public:
  ChurnDriver(Sim& simulator, FiringLog& log, std::uint64_t seed)
      : simulator_(&simulator), log_(&log), rng_(seed) {}

  void seed_initial(int count) {
    for (int i = 0; i < count; ++i) {
      schedule_child(rng_.uniform(0.0, 40.0));
    }
    // A few periodic series on integer phases (so they tie with each
    // other), some self-stopping.
    for (int i = 0; i < 6; ++i) {
      const DurationMs period = 3.0 + static_cast<double>(i);
      const int tag = next_tag_++;
      const int stop_after = (i % 2 == 0) ? 9 : 1000;
      periodic_handles_.push_back(simulator_->schedule_repeating(
          1.0 + i, period, [this, tag, fired = 0, stop_after]() mutable {
            log_->emplace_back(simulator_->now(), tag);
            return ++fired < stop_after;
          }));
    }
  }

 private:
  using EventHandle = decltype(std::declval<Sim&>().schedule_in(0.0, [] {}));
  using PeriodicHandle = decltype(std::declval<Sim&>().schedule_repeating(
      0.0, 1.0, [] { return true; }));

  void schedule_child(DurationMs delay) {
    if (spawned_ >= kMaxSpawned) return;
    ++spawned_;
    const int tag = next_tag_++;
    const EventHandle handle = simulator_->schedule_in(
        std::max(0.0, delay), [this, tag] { fire(tag); });
    if (static_cast<int>(rng_.uniform(0.0, 4.0)) == 0) {
      saved_handles_.push_back(handle);
    }
  }

  void fire(int tag) {
    log_->emplace_back(simulator_->now(), tag);
    // 0-3 children, 1.25 on average: the population grows until
    // kMaxSpawned caps it, then drains.
    const int children = static_cast<int>(rng_.uniform(0.0, 3.5));
    for (int i = 0; i < children; ++i) {
      // Mix zero-delay chains, short and long delays.
      const int kind = static_cast<int>(rng_.uniform(0.0, 3.0));
      const DurationMs delay = kind == 0   ? 0.0
                               : kind == 1 ? rng_.uniform(0.0, 5.0)
                                           : rng_.uniform(5.0, 120.0);
      schedule_child(delay);
    }
    if (!saved_handles_.empty() &&
        static_cast<int>(rng_.uniform(0.0, 3.0)) == 0) {
      const auto pick = static_cast<std::size_t>(
          rng_.uniform(0.0, static_cast<double>(saved_handles_.size())));
      saved_handles_[pick].cancel();
      saved_handles_.erase(saved_handles_.begin() +
                           static_cast<std::ptrdiff_t>(pick));
    }
    if (!periodic_handles_.empty() &&
        static_cast<int>(rng_.uniform(0.0, 40.0)) == 0) {
      periodic_handles_.back().cancel();
      periodic_handles_.pop_back();
    }
  }

  static constexpr int kMaxSpawned = 4000;

  Sim* simulator_;
  FiringLog* log_;
  Rng rng_;
  std::vector<EventHandle> saved_handles_;
  std::vector<PeriodicHandle> periodic_handles_;
  int next_tag_ = 0;
  int spawned_ = 0;
};

struct ChurnRun {
  FiringLog log;  // firings, plus (now, kBoundary) after each run_until
  std::size_t events_processed = 0;
};

constexpr int kBoundary = -1;

/// Run the churn script, stepping through several run_until boundaries
/// (one of them repeated) before draining completely.
template <typename Sim>
ChurnRun run_churn(std::uint64_t seed) {
  Sim simulator;
  ChurnRun run;
  ChurnDriver<Sim> driver(simulator, run.log, seed);
  driver.seed_initial(64);
  for (const TimeMs until : {50.0, 50.0, 333.3}) {
    run.log.emplace_back(simulator.run_until(until), kBoundary);
  }
  run.log.emplace_back(simulator.run_to_completion(), kBoundary);
  run.events_processed = simulator.events_processed();
  return run;
}

TEST(Simulator, MatchesReferenceModelUnderRandomChurn) {
  for (const std::uint64_t seed : {1ull, 7ull, 1234ull, 2026ull}) {
    const ChurnRun actual = run_churn<Simulator>(seed);
    const ChurnRun expected = run_churn<ReferenceSimulator>(seed);
    ASSERT_GT(expected.log.size(), 3000u) << "seed=" << seed;
    const auto [a, e] = std::ranges::mismatch(actual.log, expected.log);
    EXPECT_TRUE(a == actual.log.end() && e == expected.log.end())
        << "seed=" << seed << ": logs diverge at entry "
        << (a - actual.log.begin()) << " of " << actual.log.size()
        << " (reference has " << expected.log.size() << ")";
    EXPECT_EQ(actual.events_processed, expected.events_processed)
        << "seed=" << seed;
  }
}

}  // namespace
}  // namespace paldia::sim
