// Tests for InlineFunction, at the predicate size (InlineFunction<bool>) and
// the event callback's (InlineFunction<void, 48>): captures survive every
// move, non-trivial callables are relocated and destroyed exactly once,
// Emplace replaces the held callable, a throwing construction leaves the
// function empty, an empty function tests false, and a callable the buffer
// cannot hold does not compile.

#include "src/base/inline_function.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace elsc {
namespace {

// The event queue's instantiation (EventCallback, src/sim/event_queue.h).
using EventFn = InlineFunction<void, 48>;

// The constructor's constraint rejects, at compile time, every callable the
// buffer cannot hold; nothing falls back to the heap.
struct alignas(16) Aligned16 {
  char c = 0;
};
struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(const ThrowingMove&) noexcept = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
};
using FillsTheBuffer = decltype([pad = std::array<char, EventFn::kInlineSize>{}] { (void)pad; });
using OneByteTooBig =
    decltype([pad = std::array<char, EventFn::kInlineSize + 1>{}] { (void)pad; });
using OverAligned = decltype([a = Aligned16{}] { (void)a; });
using ThrowsWhenMoved = decltype([t = ThrowingMove{}] { (void)t; });
using Mutable = decltype([n = 0]() mutable { ++n; });
static_assert(sizeof(FillsTheBuffer) == EventFn::kInlineSize);
static_assert(std::is_constructible_v<EventFn, FillsTheBuffer>);
static_assert(!std::is_constructible_v<EventFn, OneByteTooBig>);
static_assert(!std::is_constructible_v<EventFn, OverAligned>);
static_assert(!std::is_constructible_v<EventFn, ThrowsWhenMoved>);
static_assert(!std::is_constructible_v<EventFn, Mutable>);
// Move-only: an rvalue moves in, an lvalue does not compile.
static_assert(std::is_constructible_v<EventFn, EventFn>);
static_assert(!std::is_constructible_v<EventFn, EventFn&>);
static_assert(sizeof(EventFn) == sizeof(void*) + EventFn::kInlineSize);
static_assert(sizeof(InlineFunction<bool>) == 3 * sizeof(void*));

TEST(InlineFunctionTest, EmptyFunctionTestsFalse) {
  InlineFunction<bool> defaulted;
  EXPECT_FALSE(static_cast<bool>(defaulted));
  InlineFunction<bool> null = nullptr;
  EXPECT_FALSE(static_cast<bool>(null));
  InlineFunction<bool> moved_to(std::move(defaulted));
  EXPECT_FALSE(static_cast<bool>(moved_to));
}

TEST(InlineFunctionTest, TwoPointerCaptureSurvivesMovesAndReset) {
  int a = 3;
  int b = 4;
  const int* pa = &a;
  const int* pb = &b;
  const auto two_pointers = [pa, pb] { return *pa * 10 + *pb; };
  static_assert(sizeof(two_pointers) == InlineFunction<int>::kInlineSize,
                "the largest capture the buffer admits");
  InlineFunction<int> f = two_pointers;
  ASSERT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(), 34);

  InlineFunction<int> constructed(std::move(f));
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(constructed(), 34);

  InlineFunction<int> assigned = [] { return -1; };
  assigned = std::move(constructed);
  EXPECT_FALSE(static_cast<bool>(constructed));  // NOLINT(bugprone-use-after-move)
  a = 5;  // The capture holds pointers, so the function sees the update.
  EXPECT_EQ(assigned(), 54);

  assigned = nullptr;
  EXPECT_FALSE(static_cast<bool>(assigned));
}

TEST(InlineFunctionTest, EventSizedCaptureSurvivesMoves) {
  int sum = 0;
  int* const out = &sum;
  const std::array<int64_t, 5> terms{1, 2, 3, 4, 5};
  const auto add_all = [out, terms] {
    for (const int64_t term : terms) {
      *out += static_cast<int>(term);
    }
  };
  static_assert(sizeof(add_all) == EventFn::kInlineSize, "the largest capture the buffer admits");
  EventFn f = add_all;
  EventFn constructed(std::move(f));
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  EventFn assigned = [] {};
  assigned = std::move(constructed);
  EXPECT_FALSE(static_cast<bool>(constructed));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(assigned));
  assigned();
  EXPECT_EQ(sum, 15);
}

// A callable that counts its live instances and moves, so a missed or
// doubled destroy or relocate shows up as a count mismatch.
struct Counted {
  static int live;
  static int moves;
  int* hits;
  explicit Counted(int* h) : hits(h) { ++live; }
  Counted(Counted&& other) noexcept : hits(other.hits) {
    ++live;
    ++moves;
  }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  Counted& operator=(Counted&&) = delete;
  ~Counted() { --live; }
  bool operator()() const {
    ++*hits;
    return true;
  }
};
int Counted::live = 0;
int Counted::moves = 0;

// Runs the relocate/destroy checks on one instantiation. A void function
// discards Counted's result, so the calls are counted through `hits`.
template <typename Function>
void ExpectRelocatedAndDestroyedOnce() {
  Counted::live = 0;
  Counted::moves = 0;
  int hits = 0;
  {
    Function f = Counted(&hits);
    // The temporary is gone; exactly one Counted lives inside `f`.
    EXPECT_EQ(Counted::live, 1);
    EXPECT_EQ(Counted::moves, 1);

    Function g(std::move(f));
    EXPECT_EQ(Counted::live, 1) << "relocation must destroy the source";
    EXPECT_EQ(Counted::moves, 2);
    g();

    Function h;
    h = std::move(g);
    EXPECT_EQ(Counted::live, 1);
    EXPECT_EQ(Counted::moves, 3);
    h();

    // Overwriting a live function destroys its callable first.
    h = Function(Counted(&hits));
    EXPECT_EQ(Counted::live, 1);
    h();

    h = nullptr;
    EXPECT_EQ(Counted::live, 0);
    h = Counted(&hits);
    EXPECT_EQ(Counted::live, 1);
  }
  // The last one died with its owner.
  EXPECT_EQ(Counted::live, 0);
  EXPECT_EQ(hits, 3);
}

TEST(InlineFunctionTest, NonTrivialCallableIsRelocatedAndDestroyedOnce) {
  static_assert(!std::is_trivially_copyable_v<Counted>);
  ExpectRelocatedAndDestroyedOnce<InlineFunction<bool>>();
  ExpectRelocatedAndDestroyedOnce<EventFn>();
}

TEST(InlineFunctionTest, EmplaceReplacesTheHeldCallable) {
  Counted::live = 0;
  Counted::moves = 0;
  int first = 0;
  int second = 0;
  {
    EventFn f = Counted(&first);
    EXPECT_EQ(Counted::moves, 1);
    // Built straight into the buffer: one move from the temporary, and the
    // held callable is destroyed before its replacement is built.
    f.Emplace(Counted(&second));
    EXPECT_EQ(Counted::live, 1);
    EXPECT_EQ(Counted::moves, 2);
    f();
    EXPECT_EQ(first, 0);
    EXPECT_EQ(second, 1);

    // An InlineFunction rvalue moves in.
    f.Emplace(EventFn([&first] { ++first; }));
    EXPECT_EQ(Counted::live, 0);
    f();
    EXPECT_EQ(first, 1);
  }
  EXPECT_EQ(Counted::live, 0);
}

// Copying throws while the callable is built in the buffer.
struct ThrowsOnCopy {
  ThrowsOnCopy() = default;
  ThrowsOnCopy(const ThrowsOnCopy&) { throw std::runtime_error("copy"); }
  ThrowsOnCopy(ThrowsOnCopy&&) noexcept = default;
  void operator()() const {}
};

TEST(InlineFunctionTest, ThrowingConstructionLeavesItEmpty) {
  const ThrowsOnCopy closure;
  EXPECT_THROW({ EventFn constructed = closure; }, std::runtime_error);

  int hits = 0;
  EventFn f = [&hits] { ++hits; };
  EXPECT_THROW(f.Emplace(closure), std::runtime_error);
  EXPECT_FALSE(static_cast<bool>(f));
  f = [&hits] { ++hits; };
  f();
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace elsc
