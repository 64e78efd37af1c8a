// Tests for the stock Linux 2.3.99-pre4 scheduler port: run-queue
// manipulation semantics, the goodness search, tie-breaking, yield handling,
// the recalculation loop, and SMP has_cpu filtering (paper §3).

#include "src/sched/linux_scheduler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/base/assert.h"
#include "src/kernel/policy.h"
#include "src/sched/goodness.h"
#include "tests/sched_test_util.h"

namespace elsc {
namespace {

class LinuxSchedulerTest : public ::testing::Test {
 protected:
  LinuxSchedulerTest() { Rebuild(1, false); }

  void Rebuild(int cpus, bool smp) {
    sched_ = std::make_unique<LinuxScheduler>(CostModel::PentiumII(), factory_.task_list(),
                                              SchedulerConfig{cpus, smp});
  }

  Task* Schedule(int cpu, Task* prev) {
    CostMeter meter(sched_->cost_model());
    Task* next = sched_->Schedule(cpu, prev, meter);
    sched_->CheckInvariants();
    return next;
  }

  TaskFactory factory_;
  std::unique_ptr<LinuxScheduler> sched_;
};

TEST_F(LinuxSchedulerTest, AddPutsTaskAtFront) {
  Task* a = factory_.NewTask();
  Task* b = factory_.NewTask();
  sched_->AddToRunQueue(a);
  sched_->AddToRunQueue(b);
  const auto snapshot = sched_->QueueSnapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  // Newly woken tasks go to the front (paper §3.2).
  EXPECT_EQ(snapshot[0], b);
  EXPECT_EQ(snapshot[1], a);
  EXPECT_EQ(sched_->nr_running(), 2u);
}

TEST_F(LinuxSchedulerTest, DelRemovesAndMarksOffQueue) {
  Task* a = factory_.NewTask();
  sched_->AddToRunQueue(a);
  EXPECT_TRUE(a->OnRunQueue());
  sched_->DelFromRunQueue(a);
  EXPECT_FALSE(a->OnRunQueue());
  EXPECT_EQ(sched_->nr_running(), 0u);
}

TEST_F(LinuxSchedulerTest, MoveFirstAndLast) {
  Task* a = factory_.NewTask();
  Task* b = factory_.NewTask();
  Task* c = factory_.NewTask();
  sched_->AddToRunQueue(a);
  sched_->AddToRunQueue(b);
  sched_->AddToRunQueue(c);  // [c b a]
  sched_->MoveLastRunQueue(c);
  sched_->MoveFirstRunQueue(a);
  const auto snapshot = sched_->QueueSnapshot();
  EXPECT_EQ(snapshot[0], a);
  EXPECT_EQ(snapshot[1], b);
  EXPECT_EQ(snapshot[2], c);
}

TEST_F(LinuxSchedulerTest, PicksHighestGoodness) {
  Task* low = factory_.NewTask(5, 20);
  Task* high = factory_.NewTask(30, 20);
  Task* mid = factory_.NewTask(15, 20);
  sched_->AddToRunQueue(low);
  sched_->AddToRunQueue(high);
  sched_->AddToRunQueue(mid);
  EXPECT_EQ(Schedule(0, nullptr), high);
}

TEST_F(LinuxSchedulerTest, TieGoesToTaskCloserToFront) {
  Task* a = factory_.NewTask(10, 20);
  Task* b = factory_.NewTask(10, 20);
  sched_->AddToRunQueue(a);
  sched_->AddToRunQueue(b);  // [b a] — b is closer to the front.
  EXPECT_EQ(Schedule(0, nullptr), b);
}

TEST_F(LinuxSchedulerTest, EmptyQueueSchedulesIdleWithoutRecalc) {
  // Paper footnote 1: an empty run queue schedules the idle task rather than
  // triggering the recalculation.
  CostMeter meter(sched_->cost_model());
  EXPECT_EQ(sched_->Schedule(0, nullptr, meter), nullptr);
  EXPECT_EQ(meter.recalc_entries(), 0u);
  EXPECT_EQ(sched_->stats().idle_schedules, 1u);
}

TEST_F(LinuxSchedulerTest, AllExhaustedTriggersRecalculation) {
  Task* a = factory_.NewTask(0, 20);
  Task* b = factory_.NewTask(0, 30);
  Task* sleeper = factory_.NewTask(4, 10);  // Blocked task, not on the queue.
  sleeper->state = TaskState::kInterruptible;
  sched_->AddToRunQueue(a);
  sched_->AddToRunQueue(b);

  CostMeter meter(sched_->cost_model());
  Task* next = sched_->Schedule(0, nullptr, meter);
  EXPECT_EQ(meter.recalc_entries(), 1u);
  // After counter = counter/2 + priority, b (priority 30) wins.
  EXPECT_EQ(next, b);
  EXPECT_EQ(a->counter, 20);
  EXPECT_EQ(b->counter, 30);
  // Recalculation touches every task in the system, including blocked ones.
  EXPECT_EQ(sleeper->counter, 12);
  EXPECT_EQ(meter.recalc_tasks(), 3u);
}

TEST_F(LinuxSchedulerTest, PrevRemainsCandidateWhenRunnable) {
  Task* prev = factory_.NewTask(30, 20);
  sched_->AddToRunQueue(prev);
  prev->has_cpu = 1;  // Running on this CPU, as during a real schedule().
  Task* other = factory_.NewTask(5, 20);
  sched_->AddToRunQueue(other);
  EXPECT_EQ(Schedule(0, prev), prev);
  EXPECT_EQ(sched_->stats().picks_prev, 1u);
}

TEST_F(LinuxSchedulerTest, BlockedPrevIsRemovedFromQueue) {
  Task* prev = factory_.NewTask();
  sched_->AddToRunQueue(prev);
  prev->has_cpu = 1;
  prev->state = TaskState::kInterruptible;
  Task* other = factory_.NewTask();
  sched_->AddToRunQueue(other);
  EXPECT_EQ(Schedule(0, prev), other);
  EXPECT_FALSE(prev->OnRunQueue());
  EXPECT_EQ(sched_->nr_running(), 1u);
}

TEST_F(LinuxSchedulerTest, YieldedPrevLosesToAnyRunnableTask) {
  Task* prev = factory_.NewTask(40, 20);  // Higher goodness than the other.
  sched_->AddToRunQueue(prev);
  prev->has_cpu = 1;
  prev->policy |= kSchedYield;
  Task* weak = factory_.NewTask(1, 20);
  sched_->AddToRunQueue(weak);
  EXPECT_EQ(Schedule(0, prev), weak);
  EXPECT_FALSE(PolicyHasYield(prev->policy));  // prev_goodness cleared it.
}

TEST_F(LinuxSchedulerTest, SoloYieldTriggersExactlyOneRecalc) {
  // The paper's Figure 2 pathology: a task yields and nothing else can be
  // scheduled => the stock scheduler recalculates every counter, then runs
  // the yielder again.
  Task* prev = factory_.NewTask(10, 20);
  sched_->AddToRunQueue(prev);
  prev->has_cpu = 1;
  prev->policy |= kSchedYield;
  CostMeter meter(sched_->cost_model());
  Task* next = sched_->Schedule(0, prev, meter);
  EXPECT_EQ(next, prev);
  EXPECT_EQ(meter.recalc_entries(), 1u);
}

TEST_F(LinuxSchedulerTest, ExhaustedRoundRobinPrevIsRefreshedAndMovedLast) {
  Task* rr = factory_.NewRealtime(kSchedRr, 10);
  rr->counter = 0;
  Task* other_rt = factory_.NewRealtime(kSchedRr, 10);
  other_rt->counter = 5;
  sched_->AddToRunQueue(rr);
  sched_->AddToRunQueue(other_rt);  // [other_rt rr]... add order: rr then other -> [other rr]
  rr->has_cpu = 1;

  Task* next = Schedule(0, rr);
  // Quantum refreshed from priority, moved to the back of the queue, and the
  // rotated task loses the exact goodness tie this once — so the other
  // equal-priority RR task runs (POSIX round-robin rotation).
  EXPECT_EQ(rr->counter, rr->priority);
  EXPECT_EQ(next, other_rt);
  const auto snapshot = sched_->QueueSnapshot();
  EXPECT_EQ(snapshot.back(), rr);
}

TEST_F(LinuxSchedulerTest, RealtimeAlwaysBeatsSchedOther) {
  Task* fat = factory_.NewTask(2 * kMaxPriority, kMaxPriority);
  Task* rt = factory_.NewRealtime(kSchedFifo, 0);
  rt->counter = 0;  // Irrelevant for FIFO.
  sched_->AddToRunQueue(fat);
  sched_->AddToRunQueue(rt);
  EXPECT_EQ(Schedule(0, nullptr), rt);
}

TEST_F(LinuxSchedulerTest, HigherRtPriorityWins) {
  Task* low = factory_.NewRealtime(kSchedFifo, 10);
  Task* high = factory_.NewRealtime(kSchedFifo, 90);
  sched_->AddToRunQueue(low);
  sched_->AddToRunQueue(high);
  EXPECT_EQ(Schedule(0, nullptr), high);
}

TEST_F(LinuxSchedulerTest, SmpSkipsTasksRunningElsewhere) {
  Rebuild(2, true);
  Task* busy = factory_.NewTask(40, 20);
  busy->has_cpu = 1;
  busy->processor = 1;
  Task* free_task = factory_.NewTask(5, 20);
  sched_->AddToRunQueue(busy);
  sched_->AddToRunQueue(free_task);
  EXPECT_EQ(Schedule(0, nullptr), free_task);
}

TEST_F(LinuxSchedulerTest, SmpAffinityBonusBreaksNearTies) {
  Rebuild(2, true);
  Task* remote = factory_.NewTask(20, 20);
  remote->processor = 1;
  Task* local = factory_.NewTask(10, 20);
  local->processor = 0;
  sched_->AddToRunQueue(remote);
  sched_->AddToRunQueue(local);
  // local: 10+20+15 = 45 beats remote: 20+20 = 40.
  EXPECT_EQ(Schedule(0, nullptr), local);
}

TEST_F(LinuxSchedulerTest, MmBonusBreaksExactTies) {
  MmStruct* shared = factory_.NewMm();
  MmStruct* other = factory_.NewMm();
  Task* prev = factory_.NewTask(0, 20, shared);
  prev->state = TaskState::kInterruptible;  // Blocking; not a candidate.
  Task* kin = factory_.NewTask(10, 20, shared);
  Task* stranger = factory_.NewTask(10, 20, other);
  sched_->AddToRunQueue(prev);
  prev->has_cpu = 1;
  sched_->AddToRunQueue(kin);
  sched_->AddToRunQueue(stranger);  // Front: stranger would win the tie.
  EXPECT_EQ(Schedule(0, prev), kin);
}

TEST_F(LinuxSchedulerTest, ExaminesWholeQueueEveryCall) {
  // The O(n) behaviour the paper attacks: every runnable task is evaluated
  // on every invocation.
  for (int i = 0; i < 32; ++i) {
    sched_->AddToRunQueue(factory_.NewTask(10 + i % 5, 20));
  }
  CostMeter meter(sched_->cost_model());
  sched_->Schedule(0, nullptr, meter);
  EXPECT_EQ(meter.tasks_examined(), 32u);
  CostMeter meter2(sched_->cost_model());
  sched_->Schedule(0, nullptr, meter2);
  EXPECT_EQ(meter2.tasks_examined(), 32u);
}

TEST_F(LinuxSchedulerTest, StatsAccumulateAcrossCalls) {
  sched_->AddToRunQueue(factory_.NewTask());
  Schedule(0, nullptr);
  Schedule(0, nullptr);
  EXPECT_EQ(sched_->stats().schedule_calls, 2u);
  EXPECT_GT(sched_->stats().cycles_in_schedule, 0u);
}

TEST_F(LinuxSchedulerTest, PickOnNewProcessorCounted) {
  Rebuild(2, true);
  Task* t = factory_.NewTask(10, 20);
  t->processor = 1;
  sched_->AddToRunQueue(t);
  EXPECT_EQ(Schedule(0, nullptr), t);
  EXPECT_EQ(sched_->stats().picks_new_processor, 1u);
}

// Stamps are 32-bit. A front insert or tail move that would wrap restamps the
// queue front to back, and ties still go to the task nearer the front.
TEST_F(LinuxSchedulerTest, StampsRenumberAtEitherEndInListOrder) {
  std::vector<Task*> tasks;
  for (int i = 0; i < 5; ++i) {
    tasks.push_back(factory_.NewTask(10, 20));
    sched_->AddToRunQueue(tasks.back());
  }
  sched_->RenumberStamps(1);  // The next front insert takes stamp 0.
  Task* first = factory_.NewTask(10, 20);
  Task* second = factory_.NewTask(10, 20);
  sched_->AddToRunQueue(first);
  sched_->AddToRunQueue(second);  // Would wrap below 0: restamps first.
  sched_->CheckInvariants();
  EXPECT_EQ(sched_->QueueSnapshot().front(), second);
  EXPECT_EQ(Schedule(0, nullptr), second);

  // The back end: the next tail move takes the last stamp, the one after
  // restamps.
  sched_->RenumberStamps(UINT32_MAX - static_cast<uint32_t>(sched_->nr_running()));
  sched_->MoveLastRunQueue(second);
  sched_->MoveLastRunQueue(first);
  sched_->CheckInvariants();
  EXPECT_EQ(sched_->QueueSnapshot().back(), first);
  sched_->MoveFirstRunQueue(tasks[2]);
  EXPECT_EQ(Schedule(0, nullptr), tasks[2]);
}

// Swap-pop removal moves the last slot into the hole; a held slot moved that
// way stays held by its CPU, and the other CPU's pick still skips it.
TEST_F(LinuxSchedulerTest, HeldSlotSurvivesSwapPop) {
  Rebuild(2, true);
  Task* a = factory_.NewTask(5, 20);
  Task* b = factory_.NewTask(6, 20);
  Task* best = factory_.NewTask(30, 20);
  sched_->AddToRunQueue(a);
  sched_->AddToRunQueue(b);
  sched_->AddToRunQueue(best);  // Last slot.
  EXPECT_EQ(Schedule(0, nullptr), best);
  best->has_cpu = 1;  // Claimed, as the Machine does.
  sched_->DelFromRunQueue(a);  // best's slot moves into a's.
  sched_->CheckInvariants();
  CostMeter meter(sched_->cost_model());
  EXPECT_EQ(sched_->Schedule(1, nullptr, meter), b);
  EXPECT_EQ(meter.tasks_examined(), 1u);
  sched_->CheckInvariants();
}

// A task picked from another CPU's lane stays there while it is held. When
// its new CPU's next pick passes it over, it is re-keyed into that CPU's
// lane (CheckInvariants(), run after every pick here, checks that each slot
// no CPU holds sits in its key's lane), so a pick on its old CPU no longer
// gives it the affinity bonus.
TEST_F(LinuxSchedulerTest, ReleasedMigrantIsRekeyedIntoItsNewCpusLane) {
  Rebuild(2, true);
  Task* migrant = factory_.NewTask(20, 20);
  migrant->processor = 1;
  sched_->AddToRunQueue(migrant);
  EXPECT_EQ(Schedule(0, nullptr), migrant);
  migrant->has_cpu = 1;  // Dispatched on CPU 0, as the Machine does.
  migrant->processor = 0;

  Task* waker = factory_.NewTask(40, 20);
  waker->processor = 0;
  sched_->AddToRunQueue(waker);
  // waker 40+20+15+1 = 76 beats the still-running migrant's 20+20+15+1 = 56.
  EXPECT_EQ(Schedule(0, migrant), waker);
  waker->has_cpu = 1;
  migrant->has_cpu = 0;

  // On CPU 1, local 6+20+15 = 41 beats the migrant's 20+20 = 40; a slot
  // left in CPU 1's lane would score the migrant 55.
  Task* local = factory_.NewTask(6, 20);
  local->processor = 1;
  sched_->AddToRunQueue(local);
  EXPECT_EQ(Schedule(1, nullptr), local);
}

// The walk keeps the first task of the greatest goodness in list order, in
// whichever lane it sits. Here another CPU's task reaches this CPU's best
// only through the mm bonus (its lane's bound + 1 ties the best), and it is
// nearer the list front, so it wins: a lane that can only tie is read.
TEST_F(LinuxSchedulerTest, CrossLaneTieGoesToTheEarlierStamp) {
  Rebuild(2, true);
  MmStruct* shared = factory_.NewMm();
  MmStruct* other = factory_.NewMm();
  Task* prev = factory_.NewTask(0, 20, shared);
  prev->state = TaskState::kInterruptible;  // Blocking; not a candidate.
  sched_->AddToRunQueue(prev);
  prev->has_cpu = 1;
  Task* local = factory_.NewTask(10, 20, other);
  local->processor = 0;  // 10+20+15 = 45 on CPU 0.
  Task* remote = factory_.NewTask(24, 20, shared);
  remote->processor = 1;  // 24+20+1 = 45 on CPU 0.
  sched_->AddToRunQueue(local);
  sched_->AddToRunQueue(remote);  // Front: remote wins the tie.
  EXPECT_EQ(Schedule(0, prev), remote);
}

// Removals and holds leave a lane's bound stale-high. A pick reads every
// lane whose bound says a slot there could still win, skips the held slot,
// and picks what the walk picks.
TEST_F(LinuxSchedulerTest, StaleHighLaneBoundStillYieldsTheKernelsPick) {
  Rebuild(3, true);
  Task* gone = factory_.NewTask(40, 20);
  Task* mid = factory_.NewTask(30, 20);
  gone->processor = mid->processor = 1;  // Lane 2, bound 60.
  Task* held = factory_.NewTask(35, 20);
  Task* low = factory_.NewTask(9, 20);
  held->processor = low->processor = 2;  // Lane 3, bound 55.
  Task* local = factory_.NewTask(10, 20);
  local->processor = 0;
  for (Task* t : {gone, mid, held, low, local}) {
    sched_->AddToRunQueue(t);
  }
  EXPECT_EQ(Schedule(2, nullptr), held);  // 35+20+15 = 70.
  held->has_cpu = 1;
  sched_->DelFromRunQueue(gone);
  sched_->CheckInvariants();

  // local 45, mid 50, low 29: both stale lanes are read, and mid wins.
  CostMeter meter(sched_->cost_model());
  EXPECT_EQ(sched_->Schedule(0, nullptr, meter), mid);
  EXPECT_EQ(meter.tasks_examined(), 3u);
  sched_->CheckInvariants();
}

// The cached keys are a redundant structure, so CheckInvariants() recomputes
// them: a waiting task's goodness input written behind the scheduler's back
// (no Del + Add re-file) must trip it.
TEST_F(LinuxSchedulerTest, VerifyCatchesGoodnessChangedBehindTheScheduler) {
  Task* waiting = factory_.NewTask(10, 20);
  Task* other = factory_.NewTask(12, 20);
  sched_->AddToRunQueue(waiting);
  sched_->AddToRunQueue(other);
  sched_->CheckInvariants();
  waiting->counter = 30;
  {
    ViolationTrap trap;
    EXPECT_THROW(sched_->CheckInvariants(), InvariantViolation);
    EXPECT_TRUE(trap.triggered());
  }
  // The re-file Machine::SetTaskPriority does makes the key current again.
  sched_->DelFromRunQueue(waiting);
  sched_->AddToRunQueue(waiting);
  sched_->CheckInvariants();
  EXPECT_EQ(Schedule(0, nullptr), waiting);
}

// A queued task that starts running without a pick handing it out is not
// held, so the scan would examine it: CheckInvariants() must say so.
TEST_F(LinuxSchedulerTest, VerifyCatchesARunningTaskTheSchedulerDoesNotHold) {
  Rebuild(2, true);
  Task* t = factory_.NewTask(10, 20);
  sched_->AddToRunQueue(t);
  t->has_cpu = 1;
  ViolationTrap trap;
  EXPECT_THROW(sched_->CheckInvariants(), InvariantViolation);
}

// Task::rq_slot keeps the lane in its low bits and the index above them. At
// the most CPUs the scheduler takes, INT16_MAX, the lane needs 15 bits and a
// lane holds 65,536 slots; one more fails an ELSC_CHECK instead of wrapping
// into another slot's code. One CPU more fails at construction.
TEST(LinuxSchedulerDeathTest, RqSlotThatCannotHoldTheLaneOrIndexFailsACheck) {
  EXPECT_DEATH(LinuxScheduler(CostModel::PentiumII(), nullptr, SchedulerConfig{INT16_MAX + 1, true}),
               "num_cpus");
  TaskFactory factory;
  LinuxScheduler sched(CostModel::PentiumII(), factory.task_list(), SchedulerConfig{INT16_MAX, true});
  for (int i = 0; i < 65536; ++i) {
    sched.AddToRunQueue(factory.NewTask());  // processor 0: all in lane 1.
  }
  sched.CheckInvariants();
  Task* last = factory.NewTask();
  EXPECT_DEATH(sched.AddToRunQueue(last), "overflows Task::rq_slot");
}

}  // namespace
}  // namespace elsc
