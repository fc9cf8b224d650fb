// Simulation driver: advances simulated time by draining the event queue.
//
// All framework components (gateway, batcher, autoscaler, devices, trackers)
// are wired to one Simulator and communicate through scheduled callbacks.
// A simulator's callbacks execute one at a time in (time, sequence) order
// from its pooled EventQueue, so no component needs internal locking.
//
// Partitions: components that schedule events only among themselves (a
// fleet endpoint's serving loop) can run on a partition, a child simulator
// whose events the parent's run_until drains. Such a group's events keep the
// order and the now() they would have in one shared queue; only the host-time
// interleaving of different groups changes, and the heap each pop walks is
// the group's own. Partitions drain concurrently, so callbacks are
// single-threaded per partition only: partitions must share no mutable
// state, for thread safety as well as for ordering.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/inline_function.hpp"
#include "src/common/units.hpp"
#include "src/sim/event_queue.hpp"

namespace paldia::obs {
class Profiler;
}  // namespace paldia::obs

namespace paldia::sim {

/// Empty tag with no behaviour; perfbench/harness.cpp still passes one.
struct ShardOptions {};

class Simulator {
 public:
  Simulator() = default;
  explicit Simulator(const ShardOptions&) {}

  TimeMs now() const { return now_; }

  /// Schedule fn `delay` ms from now. Negative delays clamp to now (a
  /// zero-delay event runs after currently-pending same-time events).
  /// Throws std::logic_error on a simulator that has partitions, as does
  /// every schedule_* call.
  EventHandle schedule_in(DurationMs delay, EventFn fn);

  /// Schedule fn at absolute time t (clamped to now).
  EventHandle schedule_at(TimeMs t, EventFn fn);

  /// Add a partition: a child simulator, owned by this one, whose events
  /// run_until drains before this simulator's own. Partitions drain
  /// concurrently (see run_until), so a partition's callbacks may touch
  /// neither another partition nor this simulator; the returned reference
  /// stays valid for this simulator's lifetime. A simulator with partitions
  /// fires nothing of its own, so this throws std::logic_error while events
  /// are pending here: they would fire after every partition had reached
  /// the run_until bound.
  Simulator& add_partition();

  /// Callback of a repeating event; returns whether to keep firing.
  using RepeatFn = InlineFunction<bool()>;

  /// Handle cancelling a repeating series scheduled with schedule_repeating
  /// or schedule_every. Copyable; cancelling twice — or after the series
  /// already stopped and its slot was recycled — is a harmless no-op
  /// (generation-checked, like EventHandle).
  class PeriodicHandle {
   public:
    PeriodicHandle() = default;
    void cancel();

   private:
    friend class Simulator;
    PeriodicHandle(Simulator* simulator, std::uint32_t index,
                   std::uint32_t generation)
        : simulator_(simulator), index_(index), generation_(generation) {}

    Simulator* simulator_ = nullptr;
    std::uint32_t index_ = 0;
    std::uint32_t generation_ = 0;
  };

  /// First-class repeating event: fn fires at `start` and then every
  /// `period` ms for as long as it returns true (read now() for the tick
  /// time). The series owns one pooled slot and re-arms a thin queue entry
  /// after each firing — no per-firing allocation, unlike the previous
  /// shared_ptr<std::function> self-rescheduling chain.
  PeriodicHandle schedule_repeating(TimeMs start, DurationMs period,
                                    RepeatFn fn);

  /// Schedule fn every `period` ms starting at `start`, until the returned
  /// handle is cancelled. fn receives no arguments; read now() for the tick
  /// time. Sugar over schedule_repeating with an always-true result.
  template <typename F>
  PeriodicHandle schedule_every(TimeMs start, DurationMs period, F&& fn) {
    return schedule_repeating(start, period,
                              [f = std::forward<F>(fn)]() mutable {
                                f();
                                return true;
                              });
  }

  /// Run until the queue is empty or simulated time would pass `until`.
  /// Events exactly at `until` still run. Returns the final now(), which is
  /// at least `until`; every partition ends at the same now().
  ///
  /// Partitions drain through paldia::for_each_concurrently
  /// (common/thread_pool.hpp), on min(partitions, usable_cpus()) workers:
  /// the caller plus threads started for the call, each claiming the next
  /// partition in creation order, so a caller pinned to one CPU drains them
  /// serially, in creation order. Once a callback throws, no further
  /// partition is claimed; after every worker has joined, the
  /// lowest-indexed partition's exception is rethrown.
  TimeMs run_until(TimeMs until);

  /// Run until the queue is fully drained, partitions as in run_until.
  /// Every partition ends at the returned now(), the time of the last event
  /// fired anywhere.
  TimeMs run_to_completion();

  /// Drop every pending event and repeating series and reset the clock (for
  /// reuse in tests), in the partitions too, which stay attached.
  /// Outstanding handles are invalidated, never dangling into recycled
  /// slots: generations are bumped, not restarted.
  void reset();

  /// Number of callbacks actually fired (cancelled events never count),
  /// the partitions' included.
  std::size_t events_processed() const;

  /// Attach a self-profiler (nullptr disables; see obs/profiler.hpp).
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }

 private:
  static constexpr std::uint32_t kNoPeriodic = 0xffffffffu;

  /// Pooled state of one repeating series; the queue only ever holds a thin
  /// {this, index, generation} re-arming event pointing at it.
  struct PeriodicTask {
    RepeatFn fn;
    DurationMs period = 0.0;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoPeriodic;
    bool active = false;
  };

  /// Throws std::logic_error when this simulator has partitions.
  void require_unpartitioned() const;

  void fire_periodic(std::uint32_t index, std::uint32_t generation);
  bool cancel_periodic(std::uint32_t index, std::uint32_t generation);
  std::uint32_t acquire_periodic_slot();
  void release_periodic_slot(std::uint32_t index);

  /// Pop and fire every event at or before `until`.
  TimeMs drain(TimeMs until);

  EventQueue queue_;
  std::vector<PeriodicTask> periodic_;
  std::uint32_t periodic_free_head_ = kNoPeriodic;
  TimeMs now_ = 0.0;
  std::size_t events_processed_ = 0;
  obs::Profiler* profiler_ = nullptr;  // self-profiling hooks (optional)
  std::vector<std::unique_ptr<Simulator>> partitions_;
};

}  // namespace paldia::sim
