// Slab arena for hot-path buffer recycling.
//
// The request path allocates and frees a fresh std::vector for every take /
// chunk / batch round trip — millions of times per run. Arena<T> owns a set
// of recycled buffer slabs and hands out move-only ArenaBlock<T> views: a
// block behaves like a small vector, and returning it (destruction or an
// explicit release()) pushes its slab onto a free list instead of freeing
// the memory, so steady-state acquisition is a free-list pop with the
// buffer's capacity already grown.
//
// Safety follows the EventQueue handle discipline: every slot carries a
// generation counter that is bumped on release and on reset(), so a release
// with a stale generation — a double release, or a block outliving a
// reset() — is a counted no-op instead of a free-list corruption. Note the
// guarantee is release-only: *reading* a block after reset() is as invalid
// as reading any other reclaimed buffer.
//
// Bypass mode (Arena(false)) keeps all the bookkeeping but drops each
// buffer's storage on release, so every acquisition re-allocates like a
// plain vector — the reference side of Runner.PooledVsBypassBitIdentical
// (the arena never changes values, only where they live).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace paldia::common {

template <typename T>
class Arena;

/// Move-only, vector-like view over one pooled buffer. Destruction returns
/// the buffer to its arena's free list.
template <typename T>
class ArenaBlock {
 public:
  ArenaBlock() = default;
  ArenaBlock(ArenaBlock&& other) noexcept { move_from(other); }
  ArenaBlock& operator=(ArenaBlock&& other) noexcept {
    if (this != &other) {
      release();
      move_from(other);
    }
    return *this;
  }
  ArenaBlock(const ArenaBlock&) = delete;
  ArenaBlock& operator=(const ArenaBlock&) = delete;
  ~ArenaBlock() { release(); }

  T* data() { return buffer_ == nullptr ? nullptr : buffer_->data(); }
  const T* data() const { return buffer_ == nullptr ? nullptr : buffer_->data(); }
  std::size_t size() const { return buffer_ == nullptr ? 0 : buffer_->size(); }
  bool empty() const { return size() == 0; }

  T& operator[](std::size_t i) { return (*buffer_)[i]; }
  const T& operator[](std::size_t i) const { return (*buffer_)[i]; }
  T& front() { return buffer_->front(); }
  const T& front() const { return buffer_->front(); }
  T& back() { return buffer_->back(); }
  const T& back() const { return buffer_->back(); }

  T* begin() { return data(); }
  T* end() { return data() + size(); }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size(); }

  void push_back(const T& value) { buffer_->push_back(value); }

  /// Bulk append; for trivially copyable T this is one memcpy.
  void append(const T* src, std::size_t n) {
    if (n == 0) return;
    buffer_->insert(buffer_->end(), src, src + n);
  }

  void clear() {
    if (buffer_ != nullptr) buffer_->clear();
  }

  /// Return the buffer to the arena. Idempotent; safe (and counted) after
  /// the arena was reset().
  void release() {
    if (arena_ == nullptr) return;
    arena_->release_slot(slot_, generation_);
    arena_ = nullptr;
    buffer_ = nullptr;
  }

  /// The owning arena (null for a default-constructed or released block).
  Arena<T>* arena() const { return arena_; }

 private:
  friend class Arena<T>;
  ArenaBlock(Arena<T>* arena, std::uint32_t slot, std::uint32_t generation,
             std::vector<T>* buffer)
      : arena_(arena), buffer_(buffer), slot_(slot), generation_(generation) {}

  void move_from(ArenaBlock& other) noexcept {
    arena_ = other.arena_;
    buffer_ = other.buffer_;
    slot_ = other.slot_;
    generation_ = other.generation_;
    other.arena_ = nullptr;
    other.buffer_ = nullptr;
  }

  Arena<T>* arena_ = nullptr;
  std::vector<T>* buffer_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

template <typename T>
class Arena {
 public:
  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t reuses = 0;          // acquisitions served from the free list
    std::uint64_t releases = 0;
    std::uint64_t stale_releases = 0;  // generation mismatch (double release
                                       // or a block outliving reset())
    std::size_t slots = 0;             // peak concurrent blocks
  };

  explicit Arena(bool pooling = true) : pooling_(pooling) {}
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = delete;  // blocks hold back-pointers
  Arena& operator=(Arena&&) = delete;

  /// Hand out an empty block. Reuses a free slab when one exists.
  ArenaBlock<T> acquire() {
    std::uint32_t index;
    if (free_head_ != kNoSlot) {
      index = free_head_;
      Slot& slot = *slots_[index];
      free_head_ = slot.next_free;
      slot.next_free = kNoSlot;
      slot.in_use = true;
      ++stats_.reuses;
    } else {
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(std::make_unique<Slot>());
      slots_.back()->in_use = true;
      stats_.slots = slots_.size();
    }
    ++stats_.acquires;
    Slot& slot = *slots_[index];
    slot.buffer.clear();
    return ArenaBlock<T>(this, index, slot.generation, &slot.buffer);
  }

  /// Reclaim every slot and invalidate all outstanding blocks: their later
  /// releases become counted no-ops (generation mismatch). Called once per
  /// repetition boundary.
  void reset() {
    free_head_ = kNoSlot;
    for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(slots_.size()); ++i) {
      Slot& slot = *slots_[i];
      ++slot.generation;
      slot.in_use = false;
      recycle_buffer(slot);
      slot.next_free = free_head_;
      free_head_ = i;
    }
  }

  bool pooling() const { return pooling_; }
  const Stats& stats() const { return stats_; }

 private:
  friend class ArenaBlock<T>;
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct Slot {
    std::vector<T> buffer;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
    bool in_use = false;
  };

  void recycle_buffer(Slot& slot) {
    if (pooling_) {
      slot.buffer.clear();  // capacity retained: the whole point of the pool
    } else {
      std::vector<T>().swap(slot.buffer);  // bypass: next acquire re-allocates
    }
  }

  void release_slot(std::uint32_t index, std::uint32_t generation) {
    Slot& slot = *slots_[index];
    if (slot.generation != generation || !slot.in_use) {
      ++stats_.stale_releases;
      return;
    }
    ++slot.generation;  // any remaining handle to this acquisition is stale
    slot.in_use = false;
    recycle_buffer(slot);
    slot.next_free = free_head_;
    free_head_ = index;
    ++stats_.releases;
  }

  std::vector<std::unique_ptr<Slot>> slots_;
  std::uint32_t free_head_ = kNoSlot;
  bool pooling_ = true;
  Stats stats_{};
};

}  // namespace paldia::common
