// Tests for the per-CPU multi-queue scheduler (future work §8): home-queue
// placement, stock-compatible selection within a queue, work stealing,
// recalculation, and the lock-free Machine integration.

#include "src/sched/multiqueue_scheduler.h"

#include <gtest/gtest.h>

#include "src/kernel/policy.h"
#include "src/smp/machine.h"
#include "src/workloads/micro_behaviors.h"
#include "src/workloads/volano.h"
#include "tests/sched_test_util.h"

namespace elsc {
namespace {

class MultiQueueSchedulerTest : public ::testing::Test {
 protected:
  MultiQueueSchedulerTest() { Rebuild(2, true); }

  void Rebuild(int cpus, bool smp) {
    sched_ = std::make_unique<MultiQueueScheduler>(CostModel::PentiumII(), factory_.task_list(),
                                                   SchedulerConfig{cpus, smp});
  }

  Task* Schedule(int cpu, Task* prev) {
    CostMeter meter(sched_->cost_model());
    Task* next = sched_->Schedule(cpu, prev, meter);
    sched_->CheckInvariants();
    return next;
  }

  TaskFactory factory_;
  std::unique_ptr<MultiQueueScheduler> sched_;
};

TEST_F(MultiQueueSchedulerTest, DoesNotUseGlobalLock) {
  EXPECT_FALSE(sched_->uses_global_lock());
}

TEST_F(MultiQueueSchedulerTest, WakeupsGoToLastProcessorQueue) {
  Task* a = factory_.NewTask();
  a->processor = 0;
  Task* b = factory_.NewTask();
  b->processor = 1;
  sched_->AddToRunQueue(a);
  sched_->AddToRunQueue(b);
  EXPECT_EQ(sched_->QueueDepth(0), 1u);
  EXPECT_EQ(sched_->QueueDepth(1), 1u);
  EXPECT_EQ(a->rq_slot, 0);
  EXPECT_EQ(b->rq_slot, 1);
}

TEST_F(MultiQueueSchedulerTest, PicksBestGoodnessFromOwnQueue) {
  Task* low = factory_.NewTask(5, 20);
  low->processor = 0;
  Task* high = factory_.NewTask(30, 20);
  high->processor = 0;
  sched_->AddToRunQueue(low);
  sched_->AddToRunQueue(high);
  EXPECT_EQ(Schedule(0, nullptr), high);
}

TEST_F(MultiQueueSchedulerTest, StealsFromPeerWhenHomeEmpty) {
  Task* remote = factory_.NewTask(20, 20);
  remote->processor = 1;
  sched_->AddToRunQueue(remote);
  EXPECT_EQ(sched_->QueueDepth(0), 0u);
  EXPECT_EQ(Schedule(0, nullptr), remote);
  EXPECT_EQ(sched_->steals(), 1u);
  // The stolen task migrated to the stealing CPU's queue.
  EXPECT_EQ(remote->rq_slot, 0);
}

TEST_F(MultiQueueSchedulerTest, PrefersHomeTaskOverStealing) {
  Task* local = factory_.NewTask(5, 20);
  local->processor = 0;
  Task* remote = factory_.NewTask(40, 20);
  remote->processor = 1;
  sched_->AddToRunQueue(local);
  sched_->AddToRunQueue(remote);
  // The home queue has a schedulable task; no steal happens even though the
  // remote task has higher goodness — affinity by construction.
  EXPECT_EQ(Schedule(0, nullptr), local);
  EXPECT_EQ(sched_->steals(), 0u);
}

TEST_F(MultiQueueSchedulerTest, IdleWhenNothingAnywhere) {
  EXPECT_EQ(Schedule(0, nullptr), nullptr);
  EXPECT_EQ(sched_->stats().idle_schedules, 1u);
}

TEST_F(MultiQueueSchedulerTest, RecalculatesWhenAllExhausted) {
  Task* a = factory_.NewTask(0, 20);
  a->processor = 0;
  sched_->AddToRunQueue(a);
  CostMeter meter(sched_->cost_model());
  Task* next = sched_->Schedule(0, nullptr, meter);
  EXPECT_EQ(next, a);
  EXPECT_EQ(meter.recalc_entries(), 1u);
  EXPECT_EQ(a->counter, 20);
}

TEST_F(MultiQueueSchedulerTest, RecalculatesForExhaustedPeerTasksInsteadOfIdling) {
  // An idle CPU finding only exhausted tasks on a peer queue must trigger
  // the recalculation rather than idle while runnable work exists.
  Task* remote = factory_.NewTask(0, 20);
  remote->processor = 1;
  sched_->AddToRunQueue(remote);
  CostMeter meter(sched_->cost_model());
  Task* next = sched_->Schedule(0, nullptr, meter);
  EXPECT_EQ(next, remote);
  EXPECT_EQ(meter.recalc_entries(), 1u);
}

TEST_F(MultiQueueSchedulerTest, YieldedPrevLosesToHomePeer) {
  Task* peer = factory_.NewTask(10, 20);
  peer->processor = 0;
  Task* t = factory_.NewTask(30, 20);
  t->processor = 0;
  sched_->AddToRunQueue(peer);
  sched_->AddToRunQueue(t);
  ASSERT_EQ(Schedule(0, nullptr), t);
  t->has_cpu = 1;
  t->policy |= kSchedYield;
  EXPECT_EQ(Schedule(0, t), peer);
  EXPECT_FALSE(PolicyHasYield(t->policy));
}

TEST_F(MultiQueueSchedulerTest, SkipsTasksRunningElsewhere) {
  Task* busy = factory_.NewTask(40, 20);
  busy->processor = 0;
  sched_->AddToRunQueue(busy);
  busy->has_cpu = 1;  // Executing on CPU 1 (say).
  Task* free_task = factory_.NewTask(5, 20);
  free_task->processor = 0;
  sched_->AddToRunQueue(free_task);
  EXPECT_EQ(Schedule(0, nullptr), free_task);
}

class MultiQueueMachineTest : public ::testing::Test {};

TEST_F(MultiQueueMachineTest, VolanoCompletesWithoutGlobalLockWait) {
  MachineConfig mc;
  mc.num_cpus = 4;
  mc.smp = true;
  mc.scheduler = SchedulerKind::kMultiQueue;
  mc.check_invariants = true;
  Machine machine(mc);
  VolanoConfig vc;
  vc.rooms = 1;
  vc.users_per_room = 6;
  vc.messages_per_user = 10;
  VolanoWorkload workload(machine, vc);
  workload.Setup();
  machine.Start();
  ASSERT_TRUE(machine.RunUntil([&workload] { return workload.Done(); }, SecToCycles(600)));
  // No global run-queue lock => no lock wait accumulates.
  EXPECT_EQ(machine.scheduler().stats().lock_wait_cycles, 0u);
}

TEST_F(MultiQueueMachineTest, SpinnersBalanceAcrossCpus) {
  MachineConfig mc;
  mc.num_cpus = 2;
  mc.smp = true;
  mc.scheduler = SchedulerKind::kMultiQueue;
  Machine machine(mc);
  SpinnerBehavior a(MsToCycles(5), SecToCycles(1));
  SpinnerBehavior b(MsToCycles(5), SecToCycles(1));
  TaskParams params;
  params.behavior = &a;
  machine.CreateTask(params);
  params.behavior = &b;
  machine.CreateTask(params);
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(10)));
  // Two 1 s tasks on two CPUs: finishes in about one second.
  EXPECT_LE(machine.Now(), SecToCycles(3) / 2);
}

}  // namespace
}  // namespace elsc
