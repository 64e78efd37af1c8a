// Tests for the kernel substrate: task structure semantics (Table 1 of the
// paper), policy bits, pid allocation, the global task list, and wait queues.

#include <gtest/gtest.h>

#include <vector>

#include "src/kernel/pid_allocator.h"
#include "src/kernel/policy.h"
#include "src/kernel/task.h"
#include "src/kernel/task_list.h"
#include "src/kernel/wait_queue.h"

namespace elsc {
namespace {

TEST(PolicyTest, BaseAndYieldBitAreIndependent) {
  uint32_t policy = kSchedOther;
  EXPECT_EQ(PolicyBase(policy), kSchedOther);
  EXPECT_FALSE(PolicyHasYield(policy));
  policy |= kSchedYield;
  EXPECT_EQ(PolicyBase(policy), kSchedOther);
  EXPECT_TRUE(PolicyHasYield(policy));
  policy &= ~kSchedYield;
  EXPECT_FALSE(PolicyHasYield(policy));
}

TEST(PolicyTest, RealtimeDetection) {
  EXPECT_FALSE(PolicyIsRealtime(kSchedOther));
  EXPECT_TRUE(PolicyIsRealtime(kSchedFifo));
  EXPECT_TRUE(PolicyIsRealtime(kSchedRr));
  EXPECT_TRUE(PolicyIsRealtime(kSchedRr | kSchedYield));
}

TEST(TaskTest, DefaultsMatchTableOne) {
  Task task;
  EXPECT_EQ(task.state, TaskState::kRunning);
  EXPECT_EQ(task.policy, kSchedOther);
  EXPECT_EQ(task.priority, kDefaultPriority);
  EXPECT_EQ(task.counter, kDefaultPriority);
  EXPECT_EQ(task.rt_priority, 0);
  EXPECT_EQ(task.mm, nullptr);
  EXPECT_EQ(task.has_cpu, 0);
  EXPECT_FALSE(task.OnRunQueue());
}

TEST(TaskTest, PriorityConstantsMatchPaper) {
  // Priority is an integer between 1 and 40; 20 is the default (paper §3.1).
  EXPECT_EQ(kMinPriority, 1);
  EXPECT_EQ(kMaxPriority, 40);
  EXPECT_EQ(kDefaultPriority, 20);
  EXPECT_EQ(kMaxRtPriority, 99);
}

TEST(TaskTest, OnRunQueueTracksNextPointer) {
  Task task;
  EXPECT_FALSE(task.OnRunQueue());
  task.run_list.next = &task.run_list;
  EXPECT_TRUE(task.OnRunQueue());
  // ELSC's "on the run queue but not in a list" marker (paper footnote 3).
  task.run_list.prev = nullptr;
  EXPECT_TRUE(task.OnRunQueue());
  EXPECT_FALSE(task.InRunQueueList());
}

TEST(TaskTest, StateNames) {
  EXPECT_STREQ(TaskStateName(TaskState::kRunning), "TASK_RUNNING");
  EXPECT_STREQ(TaskStateName(TaskState::kInterruptible), "TASK_INTERRUPTIBLE");
  EXPECT_STREQ(TaskStateName(TaskState::kZombie), "TASK_ZOMBIE");
}

TEST(TaskTest, IdleTaskIsPidZero) {
  Task task;
  task.pid = 0;
  EXPECT_TRUE(task.IsIdleTask());
  task.pid = 7;
  EXPECT_FALSE(task.IsIdleTask());
}

TEST(PidAllocatorTest, SequentialFromOne) {
  PidAllocator pids;
  EXPECT_EQ(pids.Next(), 1);
  EXPECT_EQ(pids.Next(), 2);
  EXPECT_EQ(pids.Next(), 3);
  EXPECT_EQ(pids.peek_next(), 4);
}

TEST(TaskListTest, ForEachVisitsInCreationOrder) {
  TaskList list;
  Task a, b, c;
  a.pid = 1;
  b.pid = 2;
  c.pid = 3;
  list.Add(&a);
  list.Add(&b);
  list.Add(&c);
  EXPECT_EQ(list.size(), 3u);
  std::vector<int> pids;
  list.ForEach([&](Task* t) { pids.push_back(t->pid); });
  EXPECT_EQ(pids, (std::vector<int>{1, 2, 3}));
}

TEST(TaskListTest, RemoveUnlinks) {
  TaskList list;
  Task a, b;
  list.Add(&a);
  list.Add(&b);
  list.Remove(&a);
  EXPECT_EQ(list.size(), 1u);
  std::vector<Task*> seen;
  list.ForEach([&](Task* t) { seen.push_back(t); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], &b);
  EXPECT_EQ(a.task_list_node.next, nullptr);
}

TEST(TaskListTest, RecalculationLoopShape) {
  // The recalculation the schedulers run: counter = counter/2 + priority,
  // over every task (runnable or not).
  TaskList list;
  Task a, b;
  a.counter = 0;
  a.priority = 20;
  b.counter = 13;
  b.priority = 30;
  list.Add(&a);
  list.Add(&b);
  list.ForEach([](Task* t) { t->counter = (t->counter >> 1) + t->priority; });
  EXPECT_EQ(a.counter, 20);
  EXPECT_EQ(b.counter, 36);
}

TEST(TaskListTest, CounterConvergesToTwicePriority) {
  // Repeated recalculation for a never-running task converges toward
  // 2 * priority — the paper's stated counter ceiling.
  Task t;
  t.priority = 20;
  t.counter = 0;
  for (int i = 0; i < 50; ++i) {
    t.counter = (t.counter >> 1) + t.priority;
  }
  EXPECT_LE(t.counter, 2 * t.priority);
  EXPECT_GE(t.counter, 2 * t.priority - 1);
}

class RecordingWaker : public Waker {
 public:
  void WakeUpProcess(Task* task) override { woken.push_back(task); }
  std::vector<Task*> woken;
};

TEST(WaitQueueTest, FifoWakeOrder) {
  WaitQueue wq;
  Task a, b, c;
  wq.Enqueue(&a);
  wq.Enqueue(&b);
  wq.Enqueue(&c);
  EXPECT_EQ(wq.Size(), 3u);
  RecordingWaker waker;
  EXPECT_EQ(wq.WakeOne(waker), &a);
  EXPECT_EQ(wq.WakeOne(waker), &b);
  EXPECT_EQ(wq.WakeOne(waker), &c);
  EXPECT_EQ(wq.WakeOne(waker), nullptr);
  EXPECT_EQ(waker.woken, (std::vector<Task*>{&a, &b, &c}));
}

TEST(WaitQueueTest, WakeAllDrainsQueue) {
  WaitQueue wq;
  Task a, b;
  wq.Enqueue(&a);
  wq.Enqueue(&b);
  RecordingWaker waker;
  EXPECT_EQ(wq.WakeAll(waker), 2u);
  EXPECT_TRUE(wq.Empty());
  EXPECT_EQ(a.waiting_on, nullptr);
}

TEST(WaitQueueTest, RemoveSpecificTask) {
  WaitQueue wq;
  Task a, b, c;
  wq.Enqueue(&a);
  wq.Enqueue(&b);
  wq.Enqueue(&c);
  wq.Remove(&b);
  EXPECT_EQ(b.waiting_on, nullptr);
  RecordingWaker waker;
  wq.WakeAll(waker);
  EXPECT_EQ(waker.woken, (std::vector<Task*>{&a, &c}));
}

TEST(WaitQueueTest, TracksWaitingOn) {
  WaitQueue wq;
  WaitQueue other;
  Task a;
  Task b;
  wq.Enqueue(&a);
  other.Enqueue(&b);
  EXPECT_EQ(a.waiting_on, &wq);
  EXPECT_EQ(b.waiting_on, &other);
  EXPECT_EQ(wq.DequeueOne(), &a);
  EXPECT_EQ(a.waiting_on, nullptr);
  EXPECT_EQ(b.waiting_on, &other);  // A sleeper on another queue is untouched.
  other.DequeueOne();
  EXPECT_EQ(b.waiting_on, nullptr);
}

}  // namespace
}  // namespace elsc
