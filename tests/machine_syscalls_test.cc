// Tests for the Machine's process-management services: fork() quantum
// splitting and sched_setscheduler() policy changes.

#include <gtest/gtest.h>

#include "src/smp/machine.h"
#include "src/workloads/micro_behaviors.h"

namespace elsc {
namespace {

// A behavior that forks `children` tasks (each running `child_behavior`) on
// its first segment, then does a burst and exits.
class ForkingBehavior : public TaskBehavior {
 public:
  ForkingBehavior(int children, TaskBehavior* child_behavior)
      : children_(children), child_behavior_(child_behavior) {}

  Segment NextSegment(Machine& machine, Task& task) override {
    if (!forked_) {
      forked_ = true;
      for (int i = 0; i < children_; ++i) {
        TaskParams params;
        params.name = task.name + ".child" + std::to_string(i);
        params.behavior = child_behavior_;
        Task* child = machine.ForkTask(&task, params);
        child_pids_.push_back(child->pid);
      }
    }
    return Segment::Exit(MsToCycles(1));
  }

  const std::vector<int>& child_pids() const { return child_pids_; }

 private:
  int children_;
  TaskBehavior* child_behavior_;
  bool forked_ = false;
  std::vector<int> child_pids_;
};

class SchedulerParamTest : public ::testing::TestWithParam<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SchedulerParamTest,
                         ::testing::Values(SchedulerKind::kLinux, SchedulerKind::kElsc,
                                           SchedulerKind::kHeap, SchedulerKind::kMultiQueue,
                                           SchedulerKind::kO1),
                         [](const auto& info) { return SchedulerKindName(info.param); });

TEST_P(SchedulerParamTest, ForkSplitsQuantum) {
  MachineConfig mc;
  mc.num_cpus = 1;
  mc.smp = false;
  mc.scheduler = GetParam();
  mc.check_invariants = true;
  Machine machine(mc);

  SpinnerBehavior child_work(MsToCycles(1), MsToCycles(2));
  ForkingBehavior parent(1, &child_work);
  TaskParams params;
  params.name = "parent";
  params.behavior = &parent;
  params.initial_counter = 21;
  Task* parent_task = machine.CreateTask(params);
  machine.Start();
  machine.RunFor(MsToCycles(2));

  // The parent forked on its first dispatch: 21 split as child 11 / parent
  // 10, modulo at most one timer tick consumed by whoever ran.
  ASSERT_EQ(parent.child_pids().size(), 1u);
  const Task* child = machine.all_tasks()[machine.all_tasks().size() - 1];
  EXPECT_EQ(child->pid, parent.child_pids()[0]);
  EXPECT_LE(parent_task->counter + child->counter, 21);
  EXPECT_GE(parent_task->counter + child->counter, 19);
  EXPECT_LE(parent_task->counter, 10);
  // Child inherits the parent's mm and CPU.
  EXPECT_EQ(child->mm, parent_task->mm);
  EXPECT_TRUE(machine.RunUntilAllExited(SecToCycles(5)));
}

TEST_P(SchedulerParamTest, ForkBombGainsNoCpuShare) {
  // Because fork splits the quantum, a task that forks children does not get
  // more CPU than a task that doesn't (until the next recalculation).
  MachineConfig mc;
  mc.num_cpus = 1;
  mc.smp = false;
  mc.scheduler = GetParam();
  Machine machine(mc);

  SpinnerBehavior child_work(MsToCycles(2), MsToCycles(30));
  ForkingBehavior forker(4, &child_work);
  SpinnerBehavior honest(MsToCycles(2), MsToCycles(30));
  TaskParams params;
  params.name = "forker";
  params.behavior = &forker;
  machine.CreateTask(params);
  params.name = "honest";
  params.behavior = &honest;
  Task* honest_task = machine.CreateTask(params);
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(10)));
  // The honest task got its work done without being starved.
  EXPECT_EQ(honest_task->stats.cpu_cycles, MsToCycles(30));
}

TEST_P(SchedulerParamTest, SetPolicyPromotesToRealtime) {
  MachineConfig mc;
  mc.num_cpus = 1;
  mc.smp = false;
  mc.scheduler = GetParam();
  mc.check_invariants = true;
  Machine machine(mc);

  SpinnerBehavior hog(MsToCycles(5), MsToCycles(500));
  SpinnerBehavior vip_work(MsToCycles(5), MsToCycles(50));
  TaskParams params;
  params.name = "hog";
  params.behavior = &hog;
  Task* hog_task = machine.CreateTask(params);
  params.name = "vip";
  params.behavior = &vip_work;
  Task* vip = machine.CreateTask(params);
  machine.Start();
  machine.RunFor(MsToCycles(20));

  // Promote the vip to SCHED_FIFO: it must finish its remaining work before
  // the hog gets meaningful CPU again.
  machine.SetTaskPolicy(vip, kSchedFifo, 50);
  EXPECT_TRUE(vip->IsRealtime());
  const Cycles hog_before = hog_task->stats.cpu_cycles;
  machine.RunUntil([&] { return vip->state == TaskState::kZombie; }, SecToCycles(5));
  EXPECT_EQ(vip->state, TaskState::kZombie);
  // While the FIFO task ran, the hog progressed at most a few ticks' worth
  // (it may have been mid-quantum when the promotion landed).
  EXPECT_LE(hog_task->stats.cpu_cycles - hog_before, MsToCycles(25));
  EXPECT_TRUE(machine.RunUntilAllExited(SecToCycles(10)));
}

TEST_P(SchedulerParamTest, SetPolicyDemotesToOther) {
  MachineConfig mc;
  mc.num_cpus = 1;
  mc.smp = false;
  mc.scheduler = GetParam();
  mc.check_invariants = true;
  Machine machine(mc);

  SpinnerBehavior rt_work(MsToCycles(5), MsToCycles(100));
  TaskParams params;
  params.name = "rt";
  params.policy = kSchedRr;
  params.rt_priority = 30;
  params.behavior = &rt_work;
  Task* rt = machine.CreateTask(params);
  machine.Start();
  machine.RunFor(MsToCycles(10));
  machine.SetTaskPolicy(rt, kSchedOther, 0);
  EXPECT_FALSE(rt->IsRealtime());
  EXPECT_EQ(rt->rt_priority, 0);
  EXPECT_TRUE(machine.RunUntilAllExited(SecToCycles(5)));
}

}  // namespace
}  // namespace elsc
