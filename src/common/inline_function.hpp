// Small-buffer-optimized, move-only callable wrapper.
//
// The event queue stores one callback per scheduled event; with
// std::function almost every capture list of more than two pointers pays a
// heap allocation on the simulation hot path. InlineFunction keeps captures
// up to kInlineFunctionBytes (48 B, enough for every closure the framework
// schedules) inside the object and falls back to the heap only beyond that.
// Move-only is deliberate: events are scheduled once and fired once, and it
// lets the queue store non-copyable captures.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace paldia {

inline constexpr std::size_t kInlineFunctionBytes = 48;

template <typename Signature, std::size_t InlineBytes = kInlineFunctionBytes>
class InlineFunction;

template <typename R, typename... Args, std::size_t InlineBytes>
class InlineFunction<R(Args...), InlineBytes> {
 public:
  InlineFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>) {
      // An empty callable (a captureless lambda) writes no byte of the
      // buffer. Write one, so that GCC does not report move_from's blit as
      // a copy of uninitialized storage; other callables pay nothing.
      if constexpr (std::is_empty_v<Fn>) storage_[0] = 0;
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      vtable_ = &inline_vtable<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      vtable_ = &heap_vtable<Fn>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const { return vtable_ != nullptr; }

  R operator()(Args... args) {
    return vtable_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  struct VTable {
    R (*invoke)(void* self, Args&&... args);
    /// Move-construct the callable at dst from the one at src, then destroy
    /// the source. dst is raw storage. nullptr means the callable is
    /// trivially relocatable — move_from memcpys the buffer inline instead
    /// of paying an indirect call. Nearly every closure the simulator
    /// schedules (captures of pointers, indices and times) takes this path,
    /// and each event is relocated several times between scheduling and
    /// firing, so this shows up on the drain hot path.
    void (*relocate)(void* dst, void* src) noexcept;
    /// nullptr when destruction is a no-op (trivially destructible inline
    /// callables) — reset skips the indirect call entirely.
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  static constexpr bool fits_inline =
      sizeof(Fn) <= InlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  static R invoke_inline(void* self, Args&&... args) {
    return (*static_cast<Fn*>(self))(std::forward<Args>(args)...);
  }
  template <typename Fn>
  static void relocate_inline(void* dst, void* src) noexcept {
    ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
    static_cast<Fn*>(src)->~Fn();
  }
  template <typename Fn>
  static void destroy_inline(void* self) noexcept {
    static_cast<Fn*>(self)->~Fn();
  }

  template <typename Fn>
  static constexpr VTable inline_vtable = {
      &invoke_inline<Fn>,
      std::is_trivially_copyable_v<Fn> ? nullptr : &relocate_inline<Fn>,
      std::is_trivially_destructible_v<Fn> ? nullptr : &destroy_inline<Fn>,
  };

  template <typename Fn>
  static R invoke_heap(void* self, Args&&... args) {
    return (**static_cast<Fn**>(self))(std::forward<Args>(args)...);
  }
  template <typename Fn>
  static void destroy_heap(void* self) noexcept {
    delete *static_cast<Fn**>(self);
  }

  // Heap-held callables relocate by moving the owning pointer — a plain
  // memcpy. The source is never left dangling: move_from clears the source's
  // vtable, so its destroy can no longer run.
  template <typename Fn>
  static constexpr VTable heap_vtable = {
      &invoke_heap<Fn>,
      nullptr,
      &destroy_heap<Fn>,
  };

  void move_from(InlineFunction& other) noexcept {
    if (other.vtable_ == nullptr) return;
    if (other.vtable_->relocate == nullptr) {
      // Trivially relocatable: blit the whole buffer (fixed size, so the
      // compiler lowers it to a few vector moves, no branching on sizeof).
      std::memcpy(storage_, other.storage_, InlineBytes);
    } else {
      other.vtable_->relocate(storage_, other.storage_);
    }
    vtable_ = other.vtable_;
    other.vtable_ = nullptr;
  }

  void reset() noexcept {
    if (vtable_ != nullptr) {
      if (vtable_->destroy != nullptr) vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[InlineBytes];
  const VTable* vtable_ = nullptr;
};

}  // namespace paldia
