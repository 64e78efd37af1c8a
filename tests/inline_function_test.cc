// Tests for InlineFunction: captures survive every move, non-trivial
// callables are relocated and destroyed exactly once, and an empty function
// tests false.

#include "src/base/inline_function.h"

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

namespace elsc {
namespace {

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

TEST(InlineFunctionTest, NonTrivialCallableIsRelocatedAndDestroyedOnce) {
  static_assert(!std::is_trivially_copyable_v<Counted>);
  Counted::live = 0;
  Counted::moves = 0;
  int hits = 0;
  {
    InlineFunction<bool> f = Counted(&hits);
    // The temporary is gone; exactly one Counted lives inside `f`.
    EXPECT_EQ(Counted::live, 1);
    EXPECT_EQ(Counted::moves, 1);

    InlineFunction<bool> g(std::move(f));
    EXPECT_EQ(Counted::live, 1) << "relocation must destroy the source";
    EXPECT_EQ(Counted::moves, 2);
    EXPECT_TRUE(g());

    InlineFunction<bool> h;
    h = std::move(g);
    EXPECT_EQ(Counted::live, 1);
    EXPECT_EQ(Counted::moves, 3);
    EXPECT_TRUE(h());

    // Overwriting a live function destroys its callable first.
    h = InlineFunction<bool>(Counted(&hits));
    EXPECT_EQ(Counted::live, 1);
    EXPECT_TRUE(h());

    h = nullptr;
    EXPECT_EQ(Counted::live, 0);
    h = Counted(&hits);
    EXPECT_EQ(Counted::live, 1);
  }
  // The last one died with its owner.
  EXPECT_EQ(Counted::live, 0);
  EXPECT_EQ(hits, 3);
}

}  // namespace
}  // namespace elsc
