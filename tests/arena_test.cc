// Tests for the slab arena: stable pointers, creation-order indexing and
// iteration, and destructor cleanup of every object.

#include "src/base/arena.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace elsc {
namespace {

struct Tracked {
  static int live_count;
  int value = 0;
  Tracked() { ++live_count; }
  ~Tracked() { --live_count; }
};
int Tracked::live_count = 0;

TEST(SlabArenaTest, AllocatesValueInitializedObjects) {
  SlabArena<Tracked, 4> arena;
  Tracked* a = arena.Allocate();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->value, 0);
  EXPECT_EQ(arena.size(), 1u);
  EXPECT_EQ(arena.stats().chunks, 1u);
}

TEST(SlabArenaTest, PointersStayStableAcrossGrowth) {
  SlabArena<Tracked, 4> arena;
  std::vector<Tracked*> ptrs;
  for (int i = 0; i < 100; ++i) {
    Tracked* p = arena.Allocate();
    p->value = i;
    ptrs.push_back(p);
  }
  EXPECT_EQ(arena.stats().chunks, 25u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ptrs[static_cast<size_t>(i)]->value, i) << "pointer invalidated by growth";
  }
  // All distinct slots.
  EXPECT_EQ(std::set<Tracked*>(ptrs.begin(), ptrs.end()).size(), 100u);
}

TEST(SlabArenaTest, IndexesAndIteratesInCreationOrder) {
  SlabArena<Tracked, 4> arena;
  EXPECT_TRUE(arena.empty());
  std::vector<Tracked*> ptrs;
  for (int i = 0; i < 10; ++i) {
    ptrs.push_back(arena.Allocate());
  }
  EXPECT_FALSE(arena.empty());
  ASSERT_EQ(arena.size(), 10u);
  for (size_t i = 0; i < ptrs.size(); ++i) {
    EXPECT_EQ(arena[i], ptrs[i]);
  }
  std::vector<Tracked*> iterated;
  for (Tracked* p : arena) {
    iterated.push_back(p);
  }
  EXPECT_EQ(iterated, ptrs);
}

TEST(SlabArenaTest, DestructorDestroysLiveObjects) {
  Tracked::live_count = 0;
  {
    SlabArena<Tracked, 4> arena;
    for (int i = 0; i < 11; ++i) {
      arena.Allocate();
    }
    EXPECT_EQ(Tracked::live_count, 11);
  }
  EXPECT_EQ(Tracked::live_count, 0) << "arena destructor must destroy every object";
}

}  // namespace
}  // namespace elsc
