// Real-time policy semantics across schedulers: SCHED_RR rotation among
// equals, SCHED_FIFO run-to-block, rt_priority ordering, and idle CPUs
// pulling freshly woken real-time work.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/smp/machine.h"
#include "src/workloads/micro_behaviors.h"

namespace elsc {
namespace {

class RealtimeTest : public ::testing::TestWithParam<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(AllSchedulers, RealtimeTest,
                         ::testing::ValuesIn(AllSchedulerKinds()),
                         [](const auto& info) { return SchedulerKindName(info.param); });

TEST_P(RealtimeTest, RoundRobinRotatesAmongEquals) {
  MachineConfig mc;
  mc.num_cpus = 1;
  mc.smp = false;
  mc.scheduler = GetParam();
  mc.check_invariants = true;
  Machine machine(mc);

  // Three equal-rt_priority RR hogs: each must make progress within a few
  // quantum lengths (priority 20 => 200 ms quantum), unlike FIFO.
  std::vector<std::unique_ptr<SpinnerBehavior>> behaviors;
  std::vector<Task*> tasks;
  for (int i = 0; i < 3; ++i) {
    behaviors.push_back(std::make_unique<SpinnerBehavior>(MsToCycles(5), 0));  // Infinite.
    TaskParams params;
    params.name = "rr-" + std::to_string(i);
    params.policy = kSchedRr;
    params.rt_priority = 50;
    params.behavior = behaviors.back().get();
    tasks.push_back(machine.CreateTask(params));
  }
  machine.Start();
  machine.RunFor(SecToCycles(3));
  // The heap's equal-key pop order is structural rather than positional, so
  // its rotation is approximate — every task must still make real progress.
  const Cycles floor_cycles =
      GetParam() == SchedulerKind::kHeap ? MsToCycles(60) : MsToCycles(400);
  for (Task* task : tasks) {
    EXPECT_GT(task->stats.cpu_cycles, floor_cycles) << task->name;
    EXPECT_LT(task->stats.cpu_cycles, GetParam() == SchedulerKind::kHeap
                                          ? SecToCycles(3)
                                          : MsToCycles(1600))
        << task->name;
  }
}

TEST_P(RealtimeTest, FifoDoesNotRotateAmongEquals) {
  MachineConfig mc;
  mc.num_cpus = 1;
  mc.smp = false;
  mc.scheduler = GetParam();
  Machine machine(mc);

  SpinnerBehavior first(MsToCycles(5), 0);
  SpinnerBehavior second(MsToCycles(5), 0);
  TaskParams params;
  params.policy = kSchedFifo;
  params.rt_priority = 50;
  params.name = "fifo-a";
  params.behavior = &first;
  Task* a = machine.CreateTask(params);
  params.name = "fifo-b";
  params.behavior = &second;
  Task* b = machine.CreateTask(params);
  machine.Start();
  machine.RunFor(SecToCycles(2));
  // One of them monopolizes the CPU (no quantum for FIFO); the other starves
  // until the first blocks — which it never does.
  const Cycles max_cpu = std::max(a->stats.cpu_cycles, b->stats.cpu_cycles);
  const Cycles min_cpu = std::min(a->stats.cpu_cycles, b->stats.cpu_cycles);
  EXPECT_GT(max_cpu, SecToCycles(1) * 9 / 10);
  EXPECT_LT(min_cpu, MsToCycles(10));
}

TEST_P(RealtimeTest, HigherRtPriorityPreemptsOnWake) {
  MachineConfig mc;
  mc.num_cpus = 1;
  mc.smp = false;
  mc.scheduler = GetParam();
  Machine machine(mc);

  SpinnerBehavior low_work(MsToCycles(5), 0);
  TaskParams params;
  params.policy = kSchedRr;
  params.rt_priority = 10;
  params.name = "rt-low";
  params.behavior = &low_work;
  Task* low = machine.CreateTask(params);

  WaitQueue wq;
  WaiterBehavior waiter(&wq, 1);
  params.rt_priority = 90;
  params.name = "rt-high";
  params.behavior = &waiter;
  Task* high = machine.CreateTask(params);

  machine.Start();
  machine.RunFor(MsToCycles(50));
  ASSERT_EQ(high->state, TaskState::kInterruptible);
  const uint64_t low_preemptions = low->stats.preemptions;
  wq.WakeAll(machine);
  machine.RunFor(MsToCycles(2));
  EXPECT_GT(low->stats.preemptions, low_preemptions);
  EXPECT_EQ(high->state, TaskState::kZombie);  // Ran immediately and exited.
}

TEST_P(RealtimeTest, IdleSmpCpuPicksUpWokenRealtimeTask) {
  MachineConfig mc;
  mc.num_cpus = 2;
  mc.smp = true;
  mc.scheduler = GetParam();
  Machine machine(mc);

  SpinnerBehavior hog(MsToCycles(5), 0);
  TaskParams params;
  params.name = "hog";
  params.behavior = &hog;
  machine.CreateTask(params);

  WaitQueue wq;
  WaiterBehavior waiter(&wq, 1, MsToCycles(20));
  params.name = "rt";
  params.policy = kSchedFifo;
  params.rt_priority = 5;
  params.behavior = &waiter;
  Task* rt = machine.CreateTask(params);

  machine.Start();
  machine.RunFor(MsToCycles(50));  // rt blocks; hog owns one CPU, other idles.
  ASSERT_EQ(rt->state, TaskState::kInterruptible);
  const Cycles woken_at = machine.Now();
  wq.WakeAll(machine);
  machine.RunUntil([rt] { return rt->state == TaskState::kZombie; }, SecToCycles(2));
  ASSERT_EQ(rt->state, TaskState::kZombie);
  // The idle CPU picked it up promptly: total latency well under a quantum.
  EXPECT_LT(machine.Now() - woken_at, MsToCycles(25));
}

}  // namespace
}  // namespace elsc
