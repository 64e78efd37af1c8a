// Unit tests for the behavior vocabulary: Segment factories, the micro
// behaviors' bookkeeping, and JitterCycles bounds.

#include "src/kernel/behavior.h"

#include <gtest/gtest.h>

#include "src/smp/machine.h"
#include "src/workloads/micro_behaviors.h"

namespace elsc {
namespace {

TEST(SegmentTest, FactoriesSetFields) {
  WaitQueue wq;
  const Segment block = Segment::Block(100, &wq);
  EXPECT_EQ(block.cycles, 100u);
  EXPECT_EQ(block.after, SegmentAfter::kBlock);
  EXPECT_EQ(block.wait_on, &wq);
  EXPECT_EQ(block.timeout, 0u);
  EXPECT_FALSE(static_cast<bool>(block.still_blocked));
  EXPECT_EQ(Segment::BlockFor(100, &wq, 900).timeout, 900u);

  bool flag = true;
  const Segment guarded = Segment::Block(5, &wq, [&flag] { return flag; });
  ASSERT_TRUE(static_cast<bool>(guarded.still_blocked));
  EXPECT_TRUE(guarded.still_blocked());
  flag = false;
  EXPECT_FALSE(guarded.still_blocked());

  const Segment sleep = Segment::Sleep(7, 5000);
  EXPECT_EQ(sleep.after, SegmentAfter::kSleep);
  EXPECT_EQ(sleep.timeout, 5000u);

  EXPECT_EQ(Segment::Yield(3).after, SegmentAfter::kYield);
  EXPECT_EQ(Segment::Exit(3).after, SegmentAfter::kExit);
  EXPECT_EQ(Segment::RunAgain(3).after, SegmentAfter::kRunAgain);
}

TEST(JitterCyclesTest, StaysWithinFraction) {
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    const Cycles v = JitterCycles(rng, 1000, 0.25);
    EXPECT_GE(v, 750u);
    EXPECT_LE(v, 1250u);
  }
}

TEST(JitterCyclesTest, ZeroFractionIsIdentity) {
  Rng rng(5);
  EXPECT_EQ(JitterCycles(rng, 1234, 0.0), 1234u);
  EXPECT_EQ(JitterCycles(rng, 0, 0.5), 0u);
}

TEST(JitterCyclesTest, NeverReturnsZeroForPositiveBase) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(JitterCycles(rng, 2, 0.9), 1u);
  }
}

TEST(MicroBehaviorTest, SpinnerAccountsWorkExactly) {
  Machine machine(MachineConfig{});
  SpinnerBehavior spinner(MsToCycles(3), MsToCycles(10));
  TaskParams params;
  params.behavior = &spinner;
  machine.CreateTask(params);
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(5)));
  EXPECT_EQ(spinner.work_done(), MsToCycles(10));
}

TEST(MicroBehaviorTest, YielderCountsIterations) {
  Machine machine(MachineConfig{});
  YielderBehavior yielder(UsToCycles(10), 25);
  TaskParams params;
  params.behavior = &yielder;
  Task* task = machine.CreateTask(params);
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(5)));
  EXPECT_EQ(yielder.yields_done(), 25u);
  EXPECT_EQ(task->stats.yields, 25u);
}

TEST(MicroBehaviorTest, InteractiveCountsWakeups) {
  Machine machine(MachineConfig{});
  InteractiveBehavior interactive(UsToCycles(50), MsToCycles(2), 7);
  TaskParams params;
  params.behavior = &interactive;
  machine.CreateTask(params);
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(5)));
  EXPECT_EQ(interactive.wakeups(), 7u);
}

TEST(MicroBehaviorTest, FixedWorkFinishes) {
  Machine machine(MachineConfig{});
  FixedWorkBehavior work(MsToCycles(5), MsToCycles(2));
  TaskParams params;
  params.behavior = &work;
  Task* task = machine.CreateTask(params);
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(5)));
  EXPECT_TRUE(work.finished());
  EXPECT_EQ(task->stats.cpu_cycles, MsToCycles(5));
}

TEST(MicroBehaviorTest, WaiterExitsAfterConfiguredWakes) {
  Machine machine(MachineConfig{});
  WaitQueue wq;
  WaiterBehavior waiter(&wq, 3);
  TaskParams params;
  params.behavior = &waiter;
  machine.CreateTask(params);
  machine.Start();
  for (int i = 0; i < 3; ++i) {
    machine.RunFor(MsToCycles(5));
    wq.WakeAll(machine);
  }
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(5)));
  EXPECT_EQ(waiter.times_woken(), 3u);
}

}  // namespace
}  // namespace elsc
