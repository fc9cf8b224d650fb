// Discrete-event queue: a min-heap of (time, sequence, slot) over a pooled
// slab of event entries.
//
// The sequence number makes simultaneous events fire in submission order,
// which keeps runs deterministic regardless of heap internals. Events can be
// cancelled lazily — the GPU processor-sharing engine reschedules completion
// events whenever the concurrency set changes — so cancellation must be O(1)
// and cancel-heavy churn must not grow the queue unboundedly.
//
// Layout: callbacks live in a slab (`slots_`) recycled through a free list;
// the heap itself holds only 24-byte POD items referencing a slot by index.
// A per-slot generation counter makes handles ABA-safe: recycling a slot
// bumps its generation, so a stale handle's cancel() is a no-op instead of
// cancelling the slot's new occupant. This replaces the previous
// shared_ptr<bool> cancel flag + std::function entry, which cost two heap
// allocations per scheduled event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/inline_function.hpp"
#include "src/common/units.hpp"

namespace paldia::sim {

using EventFn = InlineFunction<void()>;

class EventQueue;

/// Handle that can cancel a scheduled event. Copyable; cancelling twice is
/// harmless, as is cancelling after the event fired (the generation check
/// makes it a no-op even once the slot has been recycled). A
/// default-constructed handle refers to nothing. Handles must not outlive
/// the queue they came from.
class EventHandle {
 public:
  EventHandle() = default;

  void cancel();
  /// True when cancel() on *this handle* took effect before the event fired.
  bool cancelled() const { return cancelled_; }
  bool valid() const { return queue_ != nullptr; }

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t index, std::uint32_t generation)
      : queue_(queue), index_(index), generation_(generation) {}

  EventQueue* queue_ = nullptr;
  std::uint32_t index_ = 0;
  std::uint32_t generation_ = 0;
  bool cancelled_ = false;
};

class EventQueue {
 public:
  EventQueue() = default;
  // Handles hold a back-pointer to their queue, so the queue is pinned.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule fn at absolute simulated time t. t must be >= now() of the
  /// owning simulator (checked there, not here).
  EventHandle schedule(TimeMs t, EventFn fn);

  /// True when no live (non-cancelled) event remains. O(1): tracked by a
  /// live-entry counter, so no lazy cleanup (and no `mutable`) is needed.
  bool empty() const { return live_ == 0; }

  /// Number of heap entries, including not-yet-collected cancelled ones.
  /// An upper bound on the live event count; exact when nothing was
  /// cancelled. Cheap, used only for diagnostics.
  std::size_t size_upper_bound() const { return heap_.size(); }

  /// Time of the earliest live event; kTimeNever when empty. Collects
  /// cancelled entries sitting at the top of the heap, hence non-const.
  TimeMs next_time();

  /// Pop and return the earliest live event. Precondition: !empty().
  struct Fired {
    TimeMs time;
    EventFn fn;
  };
  Fired pop();

  /// Drop every pending event (live and cancelled) and recycle all slots.
  /// Outstanding handles are invalidated via the generation bump.
  void clear();

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  enum class SlotState : unsigned char {
    kFree,
    kPending,
    kCancelled,
  };

  struct Slot {
    EventFn fn;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
    SlotState state = SlotState::kFree;
  };

  /// What the heap orders: plain data, cheap to sift. The generation lets
  /// items from recycled slots be recognized as dead.
  struct Entry {
    TimeMs time;
    std::uint64_t sequence;
    std::uint32_t index;
    std::uint32_t generation;
  };

  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  /// Cancel the event in `index` iff the handle's generation still matches
  /// and it has not fired. Returns whether the cancel took effect. The
  /// callback is destroyed eagerly (releasing its captures); the heap item
  /// becomes a tombstone collected when it surfaces.
  bool cancel_entry(std::uint32_t index, std::uint32_t generation);

  /// Discard dead entries (cancelled, or from recycled slots) sitting at the
  /// top of the heap. Dead entries deeper in the heap are collected when
  /// they surface; they never affect emptiness (live_ tracks that exactly).
  void drop_cancelled();

  /// Pop the heap's top item and return it (plain data, no ownership).
  Entry take_top();

  /// Collect one dead heap entry: recycle the slot when the item is not a
  /// stale tombstone of an already-recycled slot.
  void collect_dead(const Entry& entry);

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);

  // Min-heap (via the Later comparator) maintained with std::push_heap /
  // std::pop_heap over an owned vector of POD items; callbacks stay put in
  // the slab and are never moved by heap sifts.
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace paldia::sim
