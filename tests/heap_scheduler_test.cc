// Tests for the heap-based scheduler (the paper's future-work alternative):
// heap ordering, arbitrary removal, recalculation rebuild, and yield
// handling.

#include "src/sched/heap_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/base/rng.h"
#include "src/kernel/policy.h"
#include "tests/sched_test_util.h"

namespace elsc {
namespace {

class HeapSchedulerTest : public ::testing::Test {
 protected:
  HeapSchedulerTest() { Rebuild(1, false); }

  void Rebuild(int cpus, bool smp) {
    sched_ = std::make_unique<HeapScheduler>(CostModel::PentiumII(), factory_.task_list(),
                                             SchedulerConfig{cpus, smp});
  }

  Task* Schedule(int cpu, Task* prev) {
    CostMeter meter(sched_->cost_model());
    Task* next = sched_->Schedule(cpu, prev, meter);
    sched_->CheckInvariants();
    return next;
  }

  TaskFactory factory_;
  std::unique_ptr<HeapScheduler> sched_;
};

TEST_F(HeapSchedulerTest, PicksMaxStaticGoodness) {
  Task* low = factory_.NewTask(5, 20);
  Task* high = factory_.NewTask(35, 20);
  Task* mid = factory_.NewTask(20, 20);
  sched_->AddToRunQueue(low);
  sched_->AddToRunQueue(high);
  sched_->AddToRunQueue(mid);
  EXPECT_EQ(Schedule(0, nullptr), high);
  EXPECT_EQ(sched_->heap_size(), 2u);  // Picked task leaves the heap.
}

TEST_F(HeapSchedulerTest, PickedTaskStaysMarkedOnRunQueue) {
  Task* t = factory_.NewTask();
  sched_->AddToRunQueue(t);
  ASSERT_EQ(Schedule(0, nullptr), t);
  EXPECT_TRUE(t->OnRunQueue());
  EXPECT_EQ(t->rq_slot, -1);
  EXPECT_EQ(sched_->nr_running(), 1u);
}

TEST_F(HeapSchedulerTest, DelFromRunQueueRemovesArbitraryTask) {
  Task* a = factory_.NewTask(10, 20);
  Task* b = factory_.NewTask(20, 20);
  Task* c = factory_.NewTask(30, 20);
  sched_->AddToRunQueue(a);
  sched_->AddToRunQueue(b);
  sched_->AddToRunQueue(c);
  sched_->DelFromRunQueue(b);
  sched_->CheckInvariants();
  EXPECT_FALSE(b->OnRunQueue());
  EXPECT_EQ(Schedule(0, nullptr), c);
  Task* c_holder = c;
  c_holder->has_cpu = 0;
  EXPECT_EQ(Schedule(0, nullptr), a);
}

TEST_F(HeapSchedulerTest, RealtimeBeatsSchedOther) {
  Task* fat = factory_.NewTask(2 * kMaxPriority, kMaxPriority);
  Task* rt = factory_.NewRealtime(kSchedFifo, 3);
  sched_->AddToRunQueue(fat);
  sched_->AddToRunQueue(rt);
  EXPECT_EQ(Schedule(0, nullptr), rt);
}

TEST_F(HeapSchedulerTest, AllExhaustedTriggersRecalcAndRepick) {
  Task* a = factory_.NewTask(0, 20);
  Task* b = factory_.NewTask(0, 40);
  sched_->AddToRunQueue(a);
  sched_->AddToRunQueue(b);
  CostMeter meter(sched_->cost_model());
  Task* next = sched_->Schedule(0, nullptr, meter);
  EXPECT_EQ(meter.recalc_entries(), 1u);
  EXPECT_EQ(next, b);
  EXPECT_EQ(a->counter, 20);
}

TEST_F(HeapSchedulerTest, YieldedPrevDoesNotRecalculate) {
  Task* t = factory_.NewTask(10, 20);
  sched_->AddToRunQueue(t);
  ASSERT_EQ(Schedule(0, nullptr), t);
  t->has_cpu = 1;
  t->policy |= kSchedYield;
  CostMeter meter(sched_->cost_model());
  Task* next = sched_->Schedule(0, t, meter);
  EXPECT_EQ(next, t);  // Key 0 but counter > 0: just runs again.
  EXPECT_EQ(meter.recalc_entries(), 0u);
  EXPECT_FALSE(PolicyHasYield(t->policy));
}

TEST_F(HeapSchedulerTest, YieldedPrevLosesToRunnablePeer) {
  Task* t = factory_.NewTask(30, 20);
  Task* peer = factory_.NewTask(5, 20);
  sched_->AddToRunQueue(t);
  sched_->AddToRunQueue(peer);
  ASSERT_EQ(Schedule(0, nullptr), t);
  t->has_cpu = 1;
  t->policy |= kSchedYield;
  EXPECT_EQ(Schedule(0, t), peer);
}

TEST_F(HeapSchedulerTest, SmpSkipsRunningElsewhere) {
  Rebuild(2, true);
  Task* busy = factory_.NewTask(40, 20);
  busy->has_cpu = 1;
  busy->processor = 1;
  Task* free_task = factory_.NewTask(5, 20);
  sched_->AddToRunQueue(busy);
  sched_->AddToRunQueue(free_task);
  EXPECT_EQ(Schedule(0, nullptr), free_task);
  // The skipped task is pushed back into the heap.
  EXPECT_EQ(sched_->heap_size(), 1u);
}

TEST_F(HeapSchedulerTest, EmptyHeapSchedulesIdle) {
  EXPECT_EQ(Schedule(0, nullptr), nullptr);
  EXPECT_EQ(sched_->stats().idle_schedules, 1u);
}

TEST_F(HeapSchedulerTest, RandomizedHeapPropertySweep) {
  Rng rng(555);
  std::vector<Task*> runnable;
  for (int step = 0; step < 3000; ++step) {
    const uint64_t op = rng.NextBelow(4);
    if (op == 0 || runnable.empty()) {
      const long priority = static_cast<long>(1 + rng.NextBelow(40));
      Task* t = factory_.NewTask(
          static_cast<long>(rng.NextBelow(static_cast<uint64_t>(2 * priority) + 1)), priority);
      sched_->AddToRunQueue(t);
      runnable.push_back(t);
    } else if (op == 1) {
      const size_t idx = rng.NextBelow(runnable.size());
      sched_->DelFromRunQueue(runnable[idx]);
      runnable.erase(runnable.begin() + static_cast<long>(idx));
    } else {
      // Pick must be a maximal static-goodness runnable task (ties allowed).
      CostMeter meter(sched_->cost_model());
      Task* next = sched_->Schedule(0, nullptr, meter);
      if (runnable.empty()) {
        ASSERT_EQ(next, nullptr);
      } else {
        ASSERT_NE(next, nullptr);
        long best = 0;
        for (Task* t : runnable) {
          best = std::max(best, t->counter == 0 ? 0 : t->counter + t->priority);
        }
        long got = next->counter == 0 ? 0 : next->counter + next->priority;
        // A recalculation may have refreshed counters; recompute if so.
        if (meter.recalc_entries() > 0) {
          best = 0;
          for (Task* t : runnable) {
            best = std::max(best, t->counter + t->priority);
          }
          got = next->counter + next->priority;
        }
        EXPECT_EQ(got, best);
        // Return the pick to the pool (as if it ran and re-entered).
        sched_->DelFromRunQueue(next);
        runnable.erase(std::find(runnable.begin(), runnable.end(), next));
        next->run_list.next = nullptr;
        next->run_list.prev = nullptr;
        sched_->AddToRunQueue(next);
        runnable.push_back(next);
      }
    }
    sched_->CheckInvariants();
  }
}

}  // namespace
}  // namespace elsc
