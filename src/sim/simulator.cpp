#include "src/sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "src/obs/profiler.hpp"

namespace paldia::sim {

EventHandle Simulator::schedule_in(DurationMs delay, EventFn fn) {
  return schedule_at(now_ + std::max(0.0, delay), std::move(fn));
}

EventHandle Simulator::schedule_at(TimeMs t, EventFn fn) {
  return queue_.schedule(std::max(t, now_), std::move(fn));
}

void Simulator::PeriodicHandle::cancel() {
  if (simulator_ != nullptr) simulator_->cancel_periodic(index_, generation_);
}

std::uint32_t Simulator::acquire_periodic_slot() {
  if (periodic_free_head_ != kNoPeriodic) {
    const std::uint32_t index = periodic_free_head_;
    periodic_free_head_ = periodic_[index].next_free;
    periodic_[index].next_free = kNoPeriodic;
    return index;
  }
  periodic_.emplace_back();
  return static_cast<std::uint32_t>(periodic_.size() - 1);
}

void Simulator::release_periodic_slot(std::uint32_t index) {
  PeriodicTask& task = periodic_[index];
  task.fn = RepeatFn{};
  task.active = false;
  ++task.generation;  // invalidates every outstanding handle to this slot
  task.next_free = periodic_free_head_;
  periodic_free_head_ = index;
}

bool Simulator::cancel_periodic(std::uint32_t index, std::uint32_t generation) {
  if (index >= periodic_.size()) return false;
  PeriodicTask& task = periodic_[index];
  if (task.generation != generation || !task.active) return false;
  // The already-armed queue entry (if any) stays queued and fires as a
  // generation-mismatched no-op — same lazy semantics as event cancel.
  release_periodic_slot(index);
  return true;
}

Simulator::PeriodicHandle Simulator::schedule_repeating(TimeMs start,
                                                        DurationMs period,
                                                        RepeatFn fn) {
  const std::uint32_t index = acquire_periodic_slot();
  PeriodicTask& task = periodic_[index];
  task.fn = std::move(fn);
  task.period = period;
  task.active = true;
  const std::uint32_t generation = task.generation;
  schedule_at(start,
              [this, index, generation] { fire_periodic(index, generation); });
  return PeriodicHandle(this, index, generation);
}

void Simulator::fire_periodic(std::uint32_t index, std::uint32_t generation) {
  if (index >= periodic_.size()) return;
  if (periodic_[index].generation != generation || !periodic_[index].active) {
    return;  // series cancelled after this firing was armed
  }
  // Move the callback out for the call: it may itself schedule repeating
  // events (reallocating the slab) or cancel its own series, either of which
  // would invalidate a reference into the slab mid-invocation.
  RepeatFn fn = std::move(periodic_[index].fn);
  const DurationMs period = periodic_[index].period;
  const bool keep = fn();
  if (index >= periodic_.size()) return;
  PeriodicTask& task = periodic_[index];
  if (task.generation != generation || !task.active) return;
  if (keep) {
    task.fn = std::move(fn);
    schedule_in(period, [this, index, generation] {
      fire_periodic(index, generation);
    });
  } else {
    release_periodic_slot(index);
  }
}

TimeMs Simulator::drain(TimeMs until) {
  obs::ScopedPhase prof(profiler_, obs::ProfilePhase::kSerialDrain);
  while (!queue_.empty() && queue_.next_time() <= until) {
    auto fired = queue_.pop();
    now_ = fired.time;
    ++events_processed_;
    fired.fn();
  }
  return now_;
}

TimeMs Simulator::run_until(TimeMs until) {
  drain(until);
  now_ = std::max(now_, until);
  return now_;
}

TimeMs Simulator::run_to_completion() { return drain(kTimeNever); }

void Simulator::reset() {
  queue_.clear();
  // Retire every periodic slot without restarting generations, so handles
  // from before the reset cannot cancel series scheduled after it.
  periodic_free_head_ = kNoPeriodic;
  for (std::uint32_t i = 0; i < periodic_.size(); ++i) {
    PeriodicTask& task = periodic_[i];
    task.fn = RepeatFn{};
    task.active = false;
    ++task.generation;
    task.next_free = periodic_free_head_;
    periodic_free_head_ = i;
  }
  now_ = 0.0;
  events_processed_ = 0;
}

}  // namespace paldia::sim
