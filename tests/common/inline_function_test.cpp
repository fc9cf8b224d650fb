#include "src/common/inline_function.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <utility>

namespace paldia {
namespace {

TEST(InlineFunction, DefaultConstructedIsEmpty) {
  InlineFunction<int()> fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFunction, InvokesWithArgumentsAndResult) {
  InlineFunction<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_TRUE(static_cast<bool>(add));
  EXPECT_EQ(add(2, 3), 5);
}

TEST(InlineFunction, MutableStatePersistsAcrossCalls) {
  InlineFunction<int()> counter = [n = 0]() mutable { return ++n; };
  EXPECT_EQ(counter(), 1);
  EXPECT_EQ(counter(), 2);
  EXPECT_EQ(counter(), 3);
}

TEST(InlineFunction, MoveTransfersCallable) {
  InlineFunction<int()> source = [n = 41]() mutable { return ++n; };
  InlineFunction<int()> target = std::move(source);
  EXPECT_FALSE(static_cast<bool>(source));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(target(), 42);

  InlineFunction<int()> assigned;
  assigned = std::move(target);
  EXPECT_EQ(assigned(), 43);  // counter state moved along

  // A captureless lambda writes no byte of the buffer it is blitted with.
  InlineFunction<int()> empty = [] { return 7; };
  InlineFunction<int()> moved_empty = std::move(empty);
  EXPECT_FALSE(static_cast<bool>(empty));  // NOLINT(bugprone-use-after-move)
  assigned = std::move(moved_empty);
  EXPECT_EQ(assigned(), 7);
}

TEST(InlineFunction, MoveOnlyCaptureWorks) {
  auto boxed = std::make_unique<int>(7);
  InlineFunction<int()> fn = [boxed = std::move(boxed)] { return *boxed; };
  EXPECT_EQ(fn(), 7);
  InlineFunction<int()> moved = std::move(fn);
  EXPECT_EQ(moved(), 7);
}

TEST(InlineFunction, LargeCaptureFallsBackToHeap) {
  // Captures beyond the inline budget still work (stored via one heap
  // allocation), and survive moves of the wrapper.
  struct Big {
    double values[16];  // 128 B > kInlineFunctionBytes
  };
  Big big{};
  big.values[0] = 1.5;
  big.values[15] = 2.5;
  InlineFunction<double()> fn = [big] { return big.values[0] + big.values[15]; };
  EXPECT_EQ(fn(), 4.0);
  InlineFunction<double()> moved = std::move(fn);
  EXPECT_EQ(moved(), 4.0);
}

class DestructionProbe {
 public:
  explicit DestructionProbe(int* counter) : counter_(counter) {}
  DestructionProbe(DestructionProbe&& other) noexcept
      : counter_(std::exchange(other.counter_, nullptr)) {}
  DestructionProbe(const DestructionProbe&) = delete;
  ~DestructionProbe() {
    if (counter_ != nullptr) ++*counter_;
  }

 private:
  int* counter_;
};

TEST(InlineFunction, DestroysCaptureExactlyOnce) {
  int destroyed = 0;
  {
    InlineFunction<void()> fn = [probe = DestructionProbe(&destroyed)] {};
    fn();
    InlineFunction<void()> moved = std::move(fn);
    moved();
    EXPECT_EQ(destroyed, 0);  // alive until the owning wrapper dies
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineFunction, AssignmentDestroysPreviousCapture) {
  int destroyed = 0;
  InlineFunction<void()> fn = [probe = DestructionProbe(&destroyed)] {};
  fn = InlineFunction<void()>([] {});
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineFunction, SmallCaptureStaysInline) {
  // A capture within the budget must not allocate: pin it by checking the
  // closure's address lands inside the wrapper object itself.
  struct Probe {
    const void* self = nullptr;
    int pad[4] = {};
    const void* where() const { return this; }
  };
  static_assert(sizeof(Probe) <= kInlineFunctionBytes);
  Probe probe;
  InlineFunction<const void*()> fn = [probe]() { return probe.where(); };
  const void* closure = fn();
  const auto* begin = reinterpret_cast<const std::byte*>(&fn);
  const auto* end = begin + sizeof(fn);
  const auto* at = reinterpret_cast<const std::byte*>(closure);
  EXPECT_TRUE(at >= begin && at < end);
}

}  // namespace
}  // namespace paldia
