// Tests for the ELSC scheduler (paper §5): table-driven selection, the
// detached-running marker, yield re-run, recalculation avoidance, bounded
// search, the UP shortcut, and real-time handling.

#include "src/sched/elsc_scheduler.h"

#include <gtest/gtest.h>

#include "src/kernel/policy.h"
#include "src/sched/goodness.h"
#include "tests/sched_test_util.h"

namespace elsc {
namespace {

class ElscSchedulerTest : public ::testing::Test {
 protected:
  ElscSchedulerTest() { Rebuild(1, false); }

  void Rebuild(int cpus, bool smp, ElscOptions options = ElscOptions{}) {
    sched_ = std::make_unique<ElscScheduler>(CostModel::PentiumII(), factory_.task_list(),
                                             SchedulerConfig{cpus, smp}, options);
  }

  Task* Schedule(int cpu, Task* prev) {
    CostMeter meter(sched_->cost_model());
    Task* next = sched_->Schedule(cpu, prev, meter);
    sched_->CheckInvariants();
    return next;
  }

  TaskFactory factory_;
  std::unique_ptr<ElscScheduler> sched_;
};

TEST_F(ElscSchedulerTest, SearchLimitFormula) {
  // "Half the number of processors in the system plus five" (paper §5.2).
  EXPECT_EQ(sched_->search_limit(), 5);
  Rebuild(4, true);
  EXPECT_EQ(sched_->search_limit(), 7);
  ElscOptions options;
  options.search_limit_extra = 2;
  Rebuild(8, true, options);
  EXPECT_EQ(sched_->search_limit(), 6);
}

TEST_F(ElscSchedulerTest, PicksFromHighestPopulatedList) {
  Task* low = factory_.NewTask(4, 4);     // List 2.
  Task* high = factory_.NewTask(30, 30);  // List 15.
  sched_->AddToRunQueue(low);
  sched_->AddToRunQueue(high);
  EXPECT_EQ(Schedule(0, nullptr), high);
}

TEST_F(ElscSchedulerTest, PickedTaskIsDetachedButStillOnRunQueue) {
  Task* t = factory_.NewTask();
  sched_->AddToRunQueue(t);
  EXPECT_EQ(Schedule(0, nullptr), t);
  // Paper footnote 3: removed from its list while executing, but the rest of
  // the system still considers it on the run queue.
  EXPECT_TRUE(t->OnRunQueue());
  EXPECT_FALSE(t->InRunQueueList());
  EXPECT_EQ(t->rq_slot, ElscRunQueue::kNoList);
  EXPECT_EQ(sched_->nr_running(), 1u);
  EXPECT_EQ(sched_->table().TotalSize(), 0u);
}

TEST_F(ElscSchedulerTest, RunnablePrevIsReinsertedAndRerun) {
  Task* t = factory_.NewTask();
  sched_->AddToRunQueue(t);
  ASSERT_EQ(Schedule(0, nullptr), t);
  t->has_cpu = 1;
  // Quantum not exhausted, still the best task: re-picked.
  EXPECT_EQ(Schedule(0, t), t);
  EXPECT_EQ(sched_->stats().picks_prev, 1u);
}

TEST_F(ElscSchedulerTest, BlockedPrevLeavesRunQueueEntirely) {
  Task* other = factory_.NewTask();
  Task* t = factory_.NewTask();
  sched_->AddToRunQueue(other);
  sched_->AddToRunQueue(t);  // Most recent wakeup sits at the front: t wins the tie.
  ASSERT_EQ(Schedule(0, nullptr), t);
  t->has_cpu = 1;
  t->state = TaskState::kInterruptible;
  EXPECT_EQ(Schedule(0, t), other);
  EXPECT_FALSE(t->OnRunQueue());
  EXPECT_EQ(sched_->nr_running(), 1u);
}

TEST_F(ElscSchedulerTest, EmptyTableSchedulesIdle) {
  CostMeter meter(sched_->cost_model());
  EXPECT_EQ(sched_->Schedule(0, nullptr, meter), nullptr);
  EXPECT_EQ(meter.recalc_entries(), 0u);
  EXPECT_EQ(sched_->stats().idle_schedules, 1u);
}

TEST_F(ElscSchedulerTest, YieldedPrevRerunsWithoutRecalculation) {
  // The stock scheduler recalculates every counter when a task yields with
  // nothing else schedulable; ELSC simply runs the previous task again if
  // its counter is non-zero (paper §5.2, Figure 2).
  Task* t = factory_.NewTask(10, 20);
  sched_->AddToRunQueue(t);
  ASSERT_EQ(Schedule(0, nullptr), t);
  t->has_cpu = 1;
  t->policy |= kSchedYield;
  CostMeter meter(sched_->cost_model());
  Task* next = sched_->Schedule(0, t, meter);
  EXPECT_EQ(next, t);
  EXPECT_EQ(meter.recalc_entries(), 0u);
  EXPECT_EQ(sched_->stats().yield_reruns, 1u);
  EXPECT_FALSE(PolicyHasYield(t->policy));
}

TEST_F(ElscSchedulerTest, YieldedPrevLosesToPeerInSameList) {
  Task* peer = factory_.NewTask(20, 20);  // Same list.
  Task* t = factory_.NewTask(20, 20);
  sched_->AddToRunQueue(peer);
  sched_->AddToRunQueue(t);  // Front of the list: t wins the initial tie.
  ASSERT_EQ(Schedule(0, nullptr), t);
  t->has_cpu = 1;
  t->policy |= kSchedYield;
  EXPECT_EQ(Schedule(0, t), peer);
  EXPECT_EQ(sched_->stats().yield_reruns, 0u);
}

TEST_F(ElscSchedulerTest, ZeroCounterYieldStillRecalculates) {
  // "Runs the previous task again if it does not have a zero counter value":
  // with a zero counter the normal recalculation path applies.
  Task* t = factory_.NewTask(1, 20);
  sched_->AddToRunQueue(t);
  ASSERT_EQ(Schedule(0, nullptr), t);
  t->has_cpu = 1;
  t->counter = 0;  // Quantum exhausted while it ran.
  t->policy |= kSchedYield;
  CostMeter meter(sched_->cost_model());
  Task* next = sched_->Schedule(0, t, meter);
  EXPECT_EQ(next, t);  // Re-picked after the refresh.
  EXPECT_EQ(meter.recalc_entries(), 1u);
  EXPECT_GT(t->counter, 0);
}

TEST_F(ElscSchedulerTest, AllExhaustedTriggersRecalcUsingParkedPredictions) {
  Task* a = factory_.NewTask(0, 20);
  Task* b = factory_.NewTask(0, 40);
  Task* sleeper = factory_.NewTask(6, 10);
  sleeper->state = TaskState::kInterruptible;  // Off the queue.
  sched_->AddToRunQueue(a);
  sched_->AddToRunQueue(b);
  CostMeter meter(sched_->cost_model());
  Task* next = sched_->Schedule(0, nullptr, meter);
  EXPECT_EQ(meter.recalc_entries(), 1u);
  EXPECT_EQ(next, b);  // Higher priority => higher predicted list.
  EXPECT_EQ(sleeper->counter, 13);  // for_each_task touches sleepers too.
}

TEST_F(ElscSchedulerTest, ExhaustedRoundRobinPrevRefreshed) {
  Task* rr = factory_.NewRealtime(kSchedRr, 30);
  rr->counter = 5;
  sched_->AddToRunQueue(rr);
  ASSERT_EQ(Schedule(0, nullptr), rr);
  rr->has_cpu = 1;
  rr->counter = 0;
  EXPECT_EQ(Schedule(0, rr), rr);
  EXPECT_EQ(rr->counter, rr->priority);
}

TEST_F(ElscSchedulerTest, RealtimePickedOverAnySchedOther) {
  Task* fat = factory_.NewTask(2 * kMaxPriority, kMaxPriority);
  Task* rt = factory_.NewRealtime(kSchedFifo, 0);
  sched_->AddToRunQueue(fat);
  sched_->AddToRunQueue(rt);
  EXPECT_EQ(Schedule(0, nullptr), rt);
}

TEST_F(ElscSchedulerTest, RealtimeSearchPicksHighestRtPriorityInList) {
  // Both land in the same RT list (35/10 == 38/10 == 3); the search must
  // pick the higher rt_priority, ignoring insertion order.
  Task* lower = factory_.NewRealtime(kSchedFifo, 35);
  Task* higher = factory_.NewRealtime(kSchedFifo, 38);
  sched_->AddToRunQueue(higher);
  sched_->AddToRunQueue(lower);  // Inserted at the front, ahead of `higher`.
  EXPECT_EQ(Schedule(0, nullptr), higher);
}

TEST_F(ElscSchedulerTest, UpShortcutStopsAtMmMatch) {
  MmStruct* shared = factory_.NewMm();
  MmStruct* other = factory_.NewMm();
  Task* prev = factory_.NewTask(20, 20, shared);
  Task* stranger = factory_.NewTask(22, 20, other);  // Higher static goodness.
  Task* kin = factory_.NewTask(20, 20, shared);      // Same list as stranger.
  sched_->AddToRunQueue(prev);
  ASSERT_EQ(Schedule(0, nullptr), prev);
  prev->has_cpu = 1;
  prev->state = TaskState::kInterruptible;  // Blocks; search runs over the rest.
  sched_->AddToRunQueue(stranger);
  sched_->AddToRunQueue(kin);  // Front of list 10: [kin stranger].
  // On UP the search ends at the first memory-map match: kin is taken
  // immediately even though stranger's utility (42) beats kin's (41).
  EXPECT_EQ(Schedule(0, prev), kin);
}

TEST_F(ElscSchedulerTest, SmpAffinityBonusAppliesWithinList) {
  Rebuild(2, true);
  Task* remote = factory_.NewTask(22, 20);
  remote->processor = 1;
  Task* local = factory_.NewTask(20, 20);
  local->processor = 0;
  sched_->AddToRunQueue(remote);
  sched_->AddToRunQueue(local);  // Same list (10): [local remote].
  // local 40+15 beats remote 42.
  EXPECT_EQ(Schedule(0, nullptr), local);
}

TEST_F(ElscSchedulerTest, SmpSkipsTasksRunningElsewhereAndDescends) {
  Rebuild(2, true);
  Task* busy = factory_.NewTask(30, 30);  // List 15, running on CPU 1.
  busy->has_cpu = 1;
  busy->processor = 1;
  Task* idle_candidate = factory_.NewTask(4, 4);  // List 2.
  sched_->AddToRunQueue(busy);
  sched_->AddToRunQueue(idle_candidate);
  // The top list is fully eliminated by the running-elsewhere check; the
  // search falls through to the next populated list (paper §5.2).
  EXPECT_EQ(Schedule(0, nullptr), idle_candidate);
}

TEST_F(ElscSchedulerTest, BoundedSearchExaminesAtMostLimit) {
  // Worst case: every task lands in the same list; ELSC examines at most
  // ncpus/2 + 5 of them (paper §5.2).
  for (int i = 0; i < 30; ++i) {
    sched_->AddToRunQueue(factory_.NewTask(20, 20));
  }
  CostMeter meter(sched_->cost_model());
  sched_->Schedule(0, nullptr, meter);
  EXPECT_LE(meter.tasks_examined(), static_cast<uint64_t>(sched_->search_limit()));
}

TEST_F(ElscSchedulerTest, SearchStopsAtExhaustedTail) {
  // Zero-counter tasks park at the tail; hitting one ends the list search.
  Task* active = factory_.NewTask(20, 20);
  Task* parked1 = factory_.NewTask(0, 20);
  Task* parked2 = factory_.NewTask(0, 20);
  sched_->AddToRunQueue(parked1);
  sched_->AddToRunQueue(parked2);
  sched_->AddToRunQueue(active);
  CostMeter meter(sched_->cost_model());
  Task* next = sched_->Schedule(0, nullptr, meter);
  EXPECT_EQ(next, active);
  // active + first parked examined; the second parked is never visited.
  EXPECT_LE(meter.tasks_examined(), 2u);
}

TEST_F(ElscSchedulerTest, AffinityDecayWithholdsStaleBonus) {
  ElscOptions options;
  options.affinity_decay_window = 2;
  Rebuild(2, true, options);

  // Age CPU 0: run three unrelated dispatch rounds so its dispatch sequence
  // moves well past the window.
  for (int i = 0; i < 3; ++i) {
    Task* filler = factory_.NewTask(30, 30);
    filler->processor = 0;
    sched_->AddToRunQueue(filler);
    ASSERT_EQ(Schedule(0, nullptr), filler);
    filler->has_cpu = 1;
    filler->state = TaskState::kInterruptible;  // Blocks immediately.
    sched_->Schedule(0, filler, *std::make_unique<CostMeter>(sched_->cost_model()));
  }
  ASSERT_GE(sched_->CpuDispatchSeq(0), 3u);

  // `stale` nominally has affinity with CPU 0 but last ran there before the
  // fillers; `fresh_remote` shares its table list with higher static
  // goodness. Without decay the +15 bonus would make `stale` win (40+15=55
  // vs 42); with the 2-dispatch window the bonus is withheld and
  // fresh_remote wins (42 > 40).
  Task* stale = factory_.NewTask(20, 20);
  stale->processor = 0;
  stale->last_run_stamp = 0;
  Task* fresh_remote = factory_.NewTask(22, 20);
  fresh_remote->processor = 1;
  sched_->AddToRunQueue(stale);
  sched_->AddToRunQueue(fresh_remote);
  EXPECT_EQ(Schedule(0, nullptr), fresh_remote);

  // Control: the same scenario without decay picks the affine task.
  Rebuild(2, true, ElscOptions{});
  TaskFactory control_factory;
  ElscScheduler control(CostModel::PentiumII(), control_factory.task_list(),
                        SchedulerConfig{2, true});
  Task* stale2 = control_factory.NewTask(20, 20);
  stale2->processor = 0;
  Task* fresh2 = control_factory.NewTask(22, 20);
  fresh2->processor = 1;
  control.AddToRunQueue(stale2);
  control.AddToRunQueue(fresh2);
  CostMeter meter(control.cost_model());
  EXPECT_EQ(control.Schedule(0, nullptr, meter), stale2);
}

TEST_F(ElscSchedulerTest, MoveLastRunQueueIsNoOpForDetachedTask) {
  Task* t = factory_.NewTask();
  sched_->AddToRunQueue(t);
  ASSERT_EQ(Schedule(0, nullptr), t);
  // Detached while running: sys_sched_yield's move_last must not corrupt.
  sched_->MoveLastRunQueue(t);
  sched_->MoveFirstRunQueue(t);
  EXPECT_TRUE(t->OnRunQueue());
  sched_->CheckInvariants();
}

TEST_F(ElscSchedulerTest, SchedulerCallsMoreOftenCounterpart) {
  // Housekeeping counters used by the Figure 6 reproduction.
  Task* t = factory_.NewTask();
  sched_->AddToRunQueue(t);
  Schedule(0, nullptr);
  EXPECT_EQ(sched_->stats().schedule_calls, 1u);
  EXPECT_GT(sched_->stats().cycles_in_schedule, 0u);
}

}  // namespace
}  // namespace elsc
