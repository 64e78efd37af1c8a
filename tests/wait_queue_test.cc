// Wait-queue semantics: FIFO wake order, spurious wakeups, wake-during-exit,
// and the recoverable double-enqueue / wrong-queue invariants that the
// fault-injection layer leans on.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/base/assert.h"
#include "src/kernel/wait_queue.h"
#include "src/smp/machine.h"
#include "src/workloads/micro_behaviors.h"

namespace elsc {
namespace {

struct RecordingWaker : public Waker {
  std::vector<Task*> woken;
  void WakeUpProcess(Task* task) override { woken.push_back(task); }
};

TEST(WaitQueueTest, WakeOneIsFifo) {
  WaitQueue queue;
  RecordingWaker waker;
  Task a, b, c;
  queue.Enqueue(&a);
  queue.Enqueue(&b);
  queue.Enqueue(&c);
  EXPECT_EQ(queue.Size(), 3u);
  EXPECT_EQ(queue.WakeOne(waker), &a);
  EXPECT_EQ(queue.WakeOne(waker), &b);
  EXPECT_EQ(queue.WakeOne(waker), &c);
  EXPECT_EQ(queue.WakeOne(waker), nullptr);
  EXPECT_TRUE(queue.Empty());
  EXPECT_EQ(waker.woken, (std::vector<Task*>{&a, &b, &c}));
  // Dequeued tasks are fully unlinked.
  EXPECT_EQ(a.waiting_on, nullptr);
  EXPECT_EQ(a.wait_node.next, nullptr);
}

TEST(WaitQueueTest, WakeAllWakesEveryoneInOrder) {
  WaitQueue queue;
  RecordingWaker waker;
  Task a, b;
  queue.Enqueue(&a);
  queue.Enqueue(&b);
  EXPECT_EQ(queue.WakeAll(waker), 2u);
  EXPECT_EQ(waker.woken, (std::vector<Task*>{&a, &b}));
  EXPECT_EQ(queue.WakeAll(waker), 0u);  // Empty queue: harmless no-op.
}

TEST(WaitQueueTest, RemoveUnlinksFromTheMiddle) {
  WaitQueue queue;
  RecordingWaker waker;
  Task a, b, c;
  queue.Enqueue(&a);
  queue.Enqueue(&b);
  queue.Enqueue(&c);
  queue.Remove(&b);
  EXPECT_EQ(b.waiting_on, nullptr);
  EXPECT_EQ(queue.WakeAll(waker), 2u);
  EXPECT_EQ(waker.woken, (std::vector<Task*>{&a, &c}));
}

TEST(WaitQueueTest, DoubleEnqueueIsARecoverableViolation) {
  WaitQueue queue;
  WaitQueue other;
  Task a;
  queue.Enqueue(&a);
  ViolationTrap trap;
  EXPECT_THROW(queue.Enqueue(&a), InvariantViolation);
  EXPECT_THROW(other.Enqueue(&a), InvariantViolation);
  EXPECT_TRUE(trap.triggered());
  EXPECT_STREQ(trap.info().msg, "task already on a wait queue");
}

TEST(WaitQueueTest, RemoveFromWrongQueueIsARecoverableViolation) {
  WaitQueue queue;
  WaitQueue other;
  Task a;
  queue.Enqueue(&a);
  ViolationTrap trap;
  EXPECT_THROW(other.Remove(&a), InvariantViolation);
  Task never_queued;
  EXPECT_THROW(queue.Remove(&never_queued), InvariantViolation);
  EXPECT_TRUE(trap.triggered());
}

// ---------------------------------------------------------------------------
// Machine-level wake paths (what the spurious-wake injector exercises).
// ---------------------------------------------------------------------------

TEST(MachineWakePathTest, SpuriousWakeOnRunnableTaskIsANoOp) {
  MachineConfig config;
  config.check_invariants = true;
  Machine machine(config);
  SpinnerBehavior spinner(MsToCycles(1), MsToCycles(5));
  TaskParams params;
  params.name = "spin";
  params.behavior = &spinner;
  Task* task = machine.CreateTask(params);
  machine.Start();
  machine.RunFor(MsToCycles(2));
  ASSERT_EQ(task->state, TaskState::kRunning);

  const uint64_t wakeups_before = machine.stats().wakeups;
  const size_t nr_before = machine.scheduler().nr_running();
  machine.WakeUpProcess(task);  // try_to_wake_up() on an already-running task.
  EXPECT_EQ(machine.stats().wakeups, wakeups_before);
  EXPECT_EQ(machine.scheduler().nr_running(), nr_before);
  // And the run still drains normally.
  EXPECT_TRUE(machine.RunUntilAllExited(SecToCycles(10)));
}

TEST(MachineWakePathTest, SpuriousWakeWhileBlockedRetiresTheWaiterEarly) {
  MachineConfig config;
  config.check_invariants = true;
  Machine machine(config);
  WaitQueue queue;
  WaiterBehavior waiter(&queue, /*wakes_before_exit=*/1);
  TaskParams params;
  params.name = "waiter";
  params.behavior = &waiter;
  Task* task = machine.CreateTask(params);
  machine.Start();
  machine.RunFor(MsToCycles(1));
  ASSERT_EQ(task->state, TaskState::kInterruptible);
  ASSERT_EQ(task->waiting_on, &queue);

  // Injected early wake — not via the queue, straight at the task (what the
  // spurious-wake injector does). The task must be dequeued and run.
  machine.WakeUpProcess(task);
  EXPECT_EQ(task->state, TaskState::kRunning);
  EXPECT_EQ(task->waiting_on, nullptr);
  EXPECT_TRUE(queue.Empty());
  EXPECT_TRUE(machine.RunUntilAllExited(SecToCycles(10)));
  EXPECT_EQ(waiter.times_woken(), 1u);
}

TEST(MachineWakePathTest, WakeDuringExitIsANoOp) {
  MachineConfig config;
  config.check_invariants = true;
  Machine machine(config);
  FixedWorkBehavior work(MsToCycles(2));
  TaskParams params;
  params.name = "short";
  params.behavior = &work;
  Task* task = machine.CreateTask(params);
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(10)));
  ASSERT_EQ(task->state, TaskState::kZombie);

  // Wake aimed at a zombie (e.g. a stale timer wake racing the exit): the
  // task must stay dead, off the queue, and uncounted.
  const uint64_t wakeups_before = machine.stats().wakeups;
  machine.WakeUpProcess(task);
  EXPECT_EQ(task->state, TaskState::kZombie);
  EXPECT_FALSE(task->OnRunQueue());
  EXPECT_EQ(machine.stats().wakeups, wakeups_before);
  EXPECT_EQ(machine.scheduler().nr_running(), 0u);
  EXPECT_EQ(machine.live_tasks(), 0u);
}

TEST(MachineWakePathTest, PendingWakeForDeadSleeperIsTolerated) {
  // A timer wake scheduled for a sleeper that exits first (the wake fires
  // against a zombie) must not corrupt anything — the machine's sleep path
  // relies on WakeUpProcess tolerating dead targets.
  MachineConfig config;
  config.check_invariants = true;
  Machine machine(config);
  WaitQueue queue;
  WaiterBehavior waiter(&queue, /*wakes_before_exit=*/1);
  TaskParams params;
  params.name = "waiter";
  params.behavior = &waiter;
  Task* task = machine.CreateTask(params);
  // Two wake pulses: the first retires the waiter, the second lands after
  // its exit.
  machine.engine().ScheduleAfter(MsToCycles(5), [&] { queue.WakeAll(machine); });
  machine.engine().ScheduleAfter(MsToCycles(50),
                                 [&machine, task] { machine.WakeUpProcess(task); });
  machine.Start();
  EXPECT_TRUE(machine.RunUntilAllExited(SecToCycles(10)));
  EXPECT_EQ(task->state, TaskState::kZombie);
  EXPECT_EQ(machine.scheduler().nr_running(), 0u);
}

}  // namespace
}  // namespace elsc
