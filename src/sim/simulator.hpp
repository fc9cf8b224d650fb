// Simulation driver: advances simulated time by draining the event queue.
//
// All framework components (gateway, batcher, autoscaler, devices, trackers)
// are wired to one Simulator and communicate through scheduled callbacks.
// Callbacks always execute single-threaded in (time, sequence) order from one
// pooled EventQueue, so no component needs internal locking.
#pragma once

#include <cstdint>
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
  EventHandle schedule_in(DurationMs delay, EventFn fn);

  /// Schedule fn at absolute time t (clamped to now).
  EventHandle schedule_at(TimeMs t, EventFn fn);

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
  /// Events exactly at `until` still run. Returns the final now().
  TimeMs run_until(TimeMs until);

  /// Run until the queue is fully drained.
  TimeMs run_to_completion();

  /// Drop every pending event and repeating series and reset the clock (for
  /// reuse in tests). Outstanding handles are invalidated, never dangling
  /// into recycled slots: generations are bumped, not restarted.
  void reset();

  /// Number of callbacks actually fired (cancelled events never count).
  std::size_t events_processed() const { return events_processed_; }

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
};

}  // namespace paldia::sim
