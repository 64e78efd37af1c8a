// Tests for the ELSC run-queue table (paper §5.1, Figure 1b): indexing,
// front/tail insertion discipline, top/next_top maintenance, section moves,
// predicted-counter parking, and a randomized invariant sweep.

#include "src/sched/elsc_runqueue.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/base/rng.h"
#include "src/kernel/policy.h"
#include "tests/sched_test_util.h"

namespace elsc {
namespace {

class ElscRunQueueTest : public ::testing::Test {
 protected:
  ElscRunQueue table_;
  TaskFactory factory_;

  std::vector<Task*> ListContents(int index) {
    std::vector<Task*> out;
    const ListHead* head = table_.list_head(index);
    for (const ListHead* node = head->next; node != head; node = node->next) {
      out.push_back(ListEntry<Task, &Task::run_list>(const_cast<ListHead*>(node)));
    }
    return out;
  }

  size_t CountInLists() {
    size_t n = 0;
    for (int i = 0; i < table_.table_config().total_lists(); ++i) {
      n += table_.ListSizeAt(i);
    }
    return n;
  }
};

TEST_F(ElscRunQueueTest, ThirtyListsByDefault) {
  // 20 SCHED_OTHER lists + 10 real-time lists (paper §5.1).
  EXPECT_EQ(table_.table_config().total_lists(), 30);
  EXPECT_EQ(table_.table_config().num_other_lists, 20);
  EXPECT_EQ(table_.table_config().num_rt_lists, 10);
  EXPECT_EQ(table_.top(), ElscRunQueue::kNoList);
  EXPECT_EQ(table_.next_top(), ElscRunQueue::kNoList);
}

TEST_F(ElscRunQueueTest, SchedOtherIndexIsStaticGoodnessOverFour) {
  Task* t = factory_.NewTask(15, 20);
  EXPECT_EQ(table_.IndexFor(*t), (15 + 20) / 4);
  Task* small = factory_.NewTask(1, 1);
  EXPECT_EQ(table_.IndexFor(*small), 0);
}

TEST_F(ElscRunQueueTest, SchedOtherIndexClampsToNonRtRegion) {
  // Max static goodness (counter 80, priority 40) would index past the
  // SCHED_OTHER region; it must clamp to the top non-RT list.
  Task* t = factory_.NewTask(2 * kMaxPriority, kMaxPriority);
  EXPECT_EQ(table_.IndexFor(*t), 19);
}

TEST_F(ElscRunQueueTest, RealtimeIndexUsesTopTenLists) {
  // rt_priority / 10 selects among the ten highest lists (paper §5.1).
  Task* low = factory_.NewRealtime(kSchedFifo, 0);
  Task* mid = factory_.NewRealtime(kSchedRr, 55);
  Task* high = factory_.NewRealtime(kSchedFifo, 99);
  EXPECT_EQ(table_.IndexFor(*low), 20);
  EXPECT_EQ(table_.IndexFor(*mid), 25);
  EXPECT_EQ(table_.IndexFor(*high), 29);
}

TEST_F(ElscRunQueueTest, ExhaustedTaskUsesPredictedCounter) {
  // counter == 0 predicts the post-recalculation value (= priority) and
  // parks at the tail of that list.
  Task* t = factory_.NewTask(0, 20);
  EXPECT_EQ(table_.IndexFor(*t), (20 + 20) / 4);
}

TEST_F(ElscRunQueueTest, InsertActiveAtFrontExhaustedAtTail) {
  Task* active1 = factory_.NewTask(20, 20);  // Index 10.
  Task* active2 = factory_.NewTask(21, 20);  // Index 10.
  Task* exhausted = factory_.NewTask(0, 20);  // Predicted index 10, tail.
  table_.Insert(active1);
  table_.Insert(exhausted);
  table_.Insert(active2);
  const auto contents = ListContents(10);
  ASSERT_EQ(contents.size(), 3u);
  EXPECT_EQ(contents[0], active2);
  EXPECT_EQ(contents[1], active1);
  EXPECT_EQ(contents[2], exhausted);
  table_.CheckInvariants(3);
}

TEST_F(ElscRunQueueTest, TopTracksHighestActiveList) {
  Task* low = factory_.NewTask(4, 4);    // Index 2.
  Task* high = factory_.NewTask(30, 30);  // Index 15.
  table_.Insert(low);
  EXPECT_EQ(table_.top(), 2);
  table_.Insert(high);
  EXPECT_EQ(table_.top(), 15);
  table_.Remove(high);
  EXPECT_EQ(table_.top(), 2);
  table_.Remove(low);
  EXPECT_EQ(table_.top(), ElscRunQueue::kNoList);
}

TEST_F(ElscRunQueueTest, NextTopTracksHighestExhaustedList) {
  Task* exhausted = factory_.NewTask(0, 20);  // Predicted list 10, tail.
  table_.Insert(exhausted);
  EXPECT_EQ(table_.top(), ElscRunQueue::kNoList);
  EXPECT_EQ(table_.next_top(), 10);
  table_.Remove(exhausted);
  EXPECT_EQ(table_.next_top(), ElscRunQueue::kNoList);
}

TEST_F(ElscRunQueueTest, MixedListSetsBothPointers) {
  Task* active = factory_.NewTask(20, 20);    // Index 10, front.
  Task* exhausted = factory_.NewTask(0, 20);  // Index 10, tail.
  table_.Insert(active);
  table_.Insert(exhausted);
  EXPECT_EQ(table_.top(), 10);
  EXPECT_EQ(table_.next_top(), 10);
  EXPECT_TRUE(table_.HasActiveTask(10));
  EXPECT_TRUE(table_.HasExhaustedTask(10));
}

TEST_F(ElscRunQueueTest, RealtimeListIsAlwaysActiveEvenWithZeroCounter) {
  // Paper footnote 2: a real-time task with a zero counter still runs before
  // regular tasks, so RT lists count as active regardless of counters.
  Task* rt = factory_.NewRealtime(kSchedRr, 5);
  rt->counter = 0;
  table_.Insert(rt);
  EXPECT_EQ(table_.top(), 20);
  EXPECT_FALSE(table_.HasExhaustedTask(20));
}

TEST_F(ElscRunQueueTest, RecalculationPromotesParkedTasks) {
  Task* a = factory_.NewTask(0, 20);  // Parks at list 10.
  Task* b = factory_.NewTask(0, 40);  // Parks at list 19 (clamped 80/4=20->19).
  table_.Insert(a);
  table_.Insert(b);
  EXPECT_EQ(table_.top(), ElscRunQueue::kNoList);
  EXPECT_EQ(table_.next_top(), 19);

  // The recalculation loop itself belongs to the scheduler; emulate it.
  a->counter = (a->counter >> 1) + a->priority;
  b->counter = (b->counter >> 1) + b->priority;
  table_.OnCountersRecalculated();

  // The parked tasks are already in their predicted lists — only the
  // pointers needed refreshing (the design's point: no re-indexing).
  EXPECT_EQ(table_.top(), 19);
  EXPECT_EQ(table_.next_top(), ElscRunQueue::kNoList);
  EXPECT_EQ(a->rq_slot, 10);
  EXPECT_EQ(b->rq_slot, 19);
  table_.CheckInvariants(2);
}

TEST_F(ElscRunQueueTest, MoveWithinSectionKeepsDiscipline) {
  Task* a1 = factory_.NewTask(20, 20);
  Task* a2 = factory_.NewTask(21, 20);
  Task* z1 = factory_.NewTask(0, 20);
  Task* z2 = factory_.NewTask(0, 20);
  table_.Insert(a1);
  table_.Insert(a2);
  table_.Insert(z1);
  table_.Insert(z2);  // List 10: [a2 a1 | z1 z2]

  // Active task to the end of its (active) section: before the zeros.
  table_.MoveLastInSection(a2);
  auto contents = ListContents(10);
  EXPECT_EQ(contents, (std::vector<Task*>{a1, a2, z1, z2}));

  // Exhausted task to the front of its (zero) section: after the actives.
  table_.MoveFirstInSection(z2);
  contents = ListContents(10);
  EXPECT_EQ(contents, (std::vector<Task*>{a1, a2, z2, z1}));

  // And to the very ends of their sections.
  table_.MoveFirstInSection(a2);
  table_.MoveLastInSection(z2);
  contents = ListContents(10);
  EXPECT_EQ(contents, (std::vector<Task*>{a2, a1, z1, z2}));
  table_.CheckInvariants(4);
}

TEST_F(ElscRunQueueTest, ReindexMovesTaskToNewList) {
  Task* t = factory_.NewTask(20, 20);
  table_.Insert(t);
  EXPECT_EQ(t->rq_slot, 10);
  t->priority = 40;
  t->counter = 40;
  table_.Reindex(t);
  EXPECT_EQ(t->rq_slot, 19);
  EXPECT_EQ(table_.top(), 19);
  table_.CheckInvariants(1);
}

TEST_F(ElscRunQueueTest, NextPopulatedListScansDownward) {
  Task* a = factory_.NewTask(4, 4);    // List 2.
  Task* b = factory_.NewTask(30, 30);  // List 15.
  table_.Insert(a);
  table_.Insert(b);
  EXPECT_EQ(table_.NextPopulatedList(29), 15);
  EXPECT_EQ(table_.NextPopulatedList(14), 2);
  EXPECT_EQ(table_.NextPopulatedList(1), ElscRunQueue::kNoList);
}

TEST_F(ElscRunQueueTest, CustomTableGeometry) {
  ElscTableConfig config;
  config.num_other_lists = 5;
  config.num_rt_lists = 2;
  config.goodness_divisor = 16;
  ElscRunQueue table(config);
  TaskFactory factory;
  Task* t = factory.NewTask(30, 30);
  EXPECT_EQ(table.IndexFor(*t), 3);  // 60/16.
  Task* rt = factory.NewRealtime(kSchedFifo, 99);
  EXPECT_EQ(table.IndexFor(*rt), 6);  // Clamped to last RT list.
  table.Insert(t);
  table.Insert(rt);
  EXPECT_EQ(table.top(), 6);
  table.CheckInvariants(2);
}

// Randomized sweep: inserts, removals, section moves, and recalculations,
// with full invariant validation after every operation.
TEST_F(ElscRunQueueTest, RandomizedInvariantSweep) {
  Rng rng(2024);
  std::vector<Task*> in_table;
  for (int step = 0; step < 4000; ++step) {
    const uint64_t op = rng.NextBelow(10);
    if (op < 4 || in_table.empty()) {
      Task* t;
      if (rng.NextBool(0.15)) {
        t = factory_.NewRealtime(rng.NextBool(0.5) ? kSchedFifo : kSchedRr,
                                 static_cast<long>(rng.NextBelow(100)));
        t->counter = static_cast<long>(rng.NextBelow(3));
      } else {
        const long priority = static_cast<long>(1 + rng.NextBelow(40));
        const long counter =
            rng.NextBool(0.3) ? 0 : static_cast<long>(rng.NextBelow(
                                        static_cast<uint64_t>(2 * priority) + 1));
        t = factory_.NewTask(counter, priority);
      }
      table_.Insert(t);
      in_table.push_back(t);
    } else if (op < 7) {
      const size_t idx = rng.NextBelow(in_table.size());
      table_.Remove(in_table[idx]);
      in_table[idx]->run_list.next = nullptr;
      in_table[idx]->run_list.prev = nullptr;
      in_table.erase(in_table.begin() + static_cast<long>(idx));
    } else if (op == 7) {
      const size_t idx = rng.NextBelow(in_table.size());
      table_.MoveFirstInSection(in_table[idx]);
    } else if (op == 8) {
      const size_t idx = rng.NextBelow(in_table.size());
      table_.MoveLastInSection(in_table[idx]);
    } else {
      // Global recalculation, as the scheduler would run it.
      if (table_.top() == ElscRunQueue::kNoList) {
        factory_.task_list()->ForEach(
            [](Task* p) { p->counter = (p->counter >> 1) + p->priority; });
        table_.OnCountersRecalculated();
      }
    }
    ASSERT_NO_FATAL_FAILURE(table_.CheckInvariants(in_table.size()));
  }
}

}  // namespace
}  // namespace elsc
