// Tests for the Machine runtime: dispatch, quantum expiry, preemption,
// blocking and waking, sleeps, yields, exits, context-switch accounting,
// migration, determinism, the run-queue-lock serialization model, and the
// task arena as the creation-order registry and its bytes per task.

#include "src/smp/machine.h"

#include <gtest/gtest.h>

#include "src/api/simulation.h"
#include "src/faults/fault_injector.h"
#include "src/kernel/wait_queue.h"
#include "src/workloads/chaos_mix.h"
#include "src/workloads/micro_behaviors.h"
#include "src/workloads/volano.h"

namespace elsc {
namespace {

MachineConfig UpConfig(SchedulerKind kind = SchedulerKind::kElsc) {
  MachineConfig config;
  config.num_cpus = 1;
  config.smp = false;
  config.scheduler = kind;
  config.check_invariants = true;
  config.seed = 7;
  return config;
}

MachineConfig SmpConfig(int cpus, SchedulerKind kind = SchedulerKind::kElsc) {
  MachineConfig config;
  config.num_cpus = cpus;
  config.smp = true;
  config.scheduler = kind;
  config.check_invariants = true;
  config.seed = 7;
  return config;
}

class MachineTest : public ::testing::TestWithParam<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(AllSchedulers, MachineTest,
                         ::testing::Values(SchedulerKind::kLinux, SchedulerKind::kElsc,
                                           SchedulerKind::kHeap, SchedulerKind::kMultiQueue,
                                           SchedulerKind::kO1),
                         [](const auto& info) { return SchedulerKindName(info.param); });

TEST_P(MachineTest, SingleSpinnerRunsToCompletion) {
  Machine machine(UpConfig(GetParam()));
  SpinnerBehavior spinner(MsToCycles(5), MsToCycles(100));
  TaskParams params;
  params.name = "spin";
  params.behavior = &spinner;
  Task* task = machine.CreateTask(params);
  machine.Start();
  EXPECT_TRUE(machine.RunUntilAllExited(SecToCycles(10)));
  EXPECT_EQ(task->state, TaskState::kZombie);
  // 100 ms of work plus scheduling overhead, well under 200 ms.
  EXPECT_GE(machine.Now(), MsToCycles(100));
  EXPECT_LE(machine.Now(), MsToCycles(200));
  EXPECT_EQ(task->stats.cpu_cycles, MsToCycles(100));
}

TEST_P(MachineTest, TwoSpinnersShareOneCpuFairly) {
  Machine machine(UpConfig(GetParam()));
  SpinnerBehavior a(MsToCycles(5), SecToCycles(1));
  SpinnerBehavior b(MsToCycles(5), SecToCycles(1));
  TaskParams params;
  params.name = "a";
  params.behavior = &a;
  Task* ta = machine.CreateTask(params);
  params.name = "b";
  params.behavior = &b;
  Task* tb = machine.CreateTask(params);
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(30)));
  // Both finish; equal priorities => the later finisher can lag by at most
  // roughly one quantum chain. Completion near 2 s total.
  EXPECT_GE(machine.Now(), SecToCycles(2));
  EXPECT_LE(machine.Now(), SecToCycles(3));
  EXPECT_EQ(ta->stats.cpu_cycles, SecToCycles(1));
  EXPECT_EQ(tb->stats.cpu_cycles, SecToCycles(1));
  // Quantum expiry forced preemptions on both.
  EXPECT_GT(machine.stats().quantum_expiries, 0u);
}

TEST_P(MachineTest, BlockedTaskWakesFromWaitQueue) {
  Machine machine(UpConfig(GetParam()));
  WaitQueue wq;
  WaiterBehavior waiter(&wq, 1);
  TaskParams params;
  params.name = "waiter";
  params.behavior = &waiter;
  Task* task = machine.CreateTask(params);
  machine.Start();
  machine.RunFor(MsToCycles(50));
  EXPECT_EQ(task->state, TaskState::kInterruptible);
  EXPECT_FALSE(task->OnRunQueue());
  EXPECT_EQ(wq.Size(), 1u);

  wq.WakeAll(machine);
  EXPECT_TRUE(machine.RunUntilAllExited(SecToCycles(5)));
  EXPECT_EQ(waiter.times_woken(), 1u);
}

TEST_P(MachineTest, SleepWakesAfterDuration) {
  Machine machine(UpConfig(GetParam()));
  InteractiveBehavior sleeper(UsToCycles(100), MsToCycles(20), 5);
  TaskParams params;
  params.name = "sleeper";
  params.behavior = &sleeper;
  machine.CreateTask(params);
  machine.Start();
  EXPECT_TRUE(machine.RunUntilAllExited(SecToCycles(5)));
  // 5 iterations x (100 us work + 20 ms sleep) ≈ 100 ms.
  EXPECT_GE(machine.Now(), MsToCycles(100));
  EXPECT_LE(machine.Now(), MsToCycles(140));
}

TEST_P(MachineTest, YieldAlternatesBetweenEqualTasks) {
  Machine machine(UpConfig(GetParam()));
  YielderBehavior a(UsToCycles(100), 50);
  YielderBehavior b(UsToCycles(100), 50);
  TaskParams params;
  params.behavior = &a;
  params.name = "ya";
  Task* ta = machine.CreateTask(params);
  params.behavior = &b;
  params.name = "yb";
  Task* tb = machine.CreateTask(params);
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(10)));
  EXPECT_EQ(ta->stats.yields, 50u);
  EXPECT_EQ(tb->stats.yields, 50u);
}

TEST_P(MachineTest, CounterDecrementsWhileRunning) {
  Machine machine(UpConfig(GetParam()));
  SpinnerBehavior spinner(MsToCycles(50), MsToCycles(55));
  TaskParams params;
  params.behavior = &spinner;
  Task* task = machine.CreateTask(params);
  const long initial = task->counter;
  machine.Start();
  machine.RunFor(MsToCycles(45));
  // ~4 ticks elapsed while the task ran.
  EXPECT_LT(task->counter, initial);
}

TEST_P(MachineTest, HigherGoodnessWakePreemptsRunningTask) {
  Machine machine(UpConfig(GetParam()));
  // A long-running CPU hog with low remaining quantum against a fresh waker.
  SpinnerBehavior hog(SecToCycles(2), SecToCycles(2));
  TaskParams params;
  params.behavior = &hog;
  params.name = "hog";
  params.initial_counter = 2;
  Task* hog_task = machine.CreateTask(params);

  WaitQueue wq;
  WaiterBehavior waiter(&wq, 1);
  params.behavior = &waiter;
  params.name = "waiter";
  params.initial_counter = -1;  // Full quantum: much better goodness.
  Task* waiter_task = machine.CreateTask(params);

  machine.Start();
  machine.RunFor(MsToCycles(30));  // Waiter blocks, hog runs.
  ASSERT_EQ(waiter_task->state, TaskState::kInterruptible);
  ASSERT_EQ(hog_task->state, TaskState::kRunning);

  const uint64_t preemptions_before = hog_task->stats.preemptions;
  wq.WakeAll(machine);
  machine.RunFor(MsToCycles(5));
  if (GetParam() == SchedulerKind::kO1) {
    // O(1) wakeup preemption is by priority index alone (2.6 semantics):
    // an equal-priority waker never preempts, however fresh its quantum.
    EXPECT_EQ(hog_task->stats.preemptions, preemptions_before);
    EXPECT_EQ(waiter_task->stats.times_scheduled, 1u);
  } else {
    // The woken task (goodness ~40) preempts the nearly-exhausted hog.
    EXPECT_GT(hog_task->stats.preemptions, preemptions_before);
    EXPECT_EQ(waiter_task->stats.times_scheduled, 2u);
  }
}

TEST_P(MachineTest, IdleCpuAccumulatesIdleTime) {
  Machine machine(UpConfig(GetParam()));
  InteractiveBehavior sleeper(UsToCycles(50), MsToCycles(50), 3);
  TaskParams params;
  params.behavior = &sleeper;
  machine.CreateTask(params);
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(5)));
  EXPECT_GT(machine.cpu(0).stats.idle_cycles, MsToCycles(100));
  EXPECT_GT(machine.cpu(0).stats.idle_periods, 2u);
}

TEST_P(MachineTest, ContextSwitchesCounted) {
  Machine machine(UpConfig(GetParam()));
  SpinnerBehavior a(MsToCycles(5), MsToCycles(100));
  SpinnerBehavior b(MsToCycles(5), MsToCycles(100));
  TaskParams params;
  params.behavior = &a;
  machine.CreateTask(params);
  params.behavior = &b;
  machine.CreateTask(params);
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(5)));
  EXPECT_GE(machine.stats().context_switches, 2u);
  EXPECT_EQ(machine.stats().tasks_created, 2u);
  EXPECT_EQ(machine.stats().tasks_exited, 2u);
}

TEST_P(MachineTest, SmpRunsTasksInParallel) {
  Machine machine(SmpConfig(2, GetParam()));
  SpinnerBehavior a(MsToCycles(5), SecToCycles(1));
  SpinnerBehavior b(MsToCycles(5), SecToCycles(1));
  TaskParams params;
  params.behavior = &a;
  machine.CreateTask(params);
  params.behavior = &b;
  machine.CreateTask(params);
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(10)));
  // Two seconds of work on two CPUs: wall time near one second.
  EXPECT_LE(machine.Now(), SecToCycles(2) * 3 / 4);
}

TEST_P(MachineTest, DeterministicAcrossRuns) {
  auto run_once = [&]() -> std::pair<Cycles, uint64_t> {
    Machine machine(UpConfig(GetParam()));
    SpinnerBehavior a(MsToCycles(3), MsToCycles(200));
    YielderBehavior y(UsToCycles(50), 100);
    InteractiveBehavior s(UsToCycles(100), MsToCycles(10), 20);
    TaskParams params;
    params.behavior = &a;
    machine.CreateTask(params);
    params.behavior = &y;
    machine.CreateTask(params);
    params.behavior = &s;
    machine.CreateTask(params);
    machine.Start();
    machine.RunUntilAllExited(SecToCycles(30));
    return {machine.Now(), machine.scheduler().stats().schedule_calls};
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second);
}

TEST(MachineUpVsSmpTest, UpKernelRequiresOneCpu) {
  MachineConfig config;
  config.num_cpus = 1;
  config.smp = false;
  Machine machine(config);  // Must not abort.
  EXPECT_EQ(machine.num_cpus(), 1);
}

TEST(MachineMigrationTest, TasksMigrateAcrossCpusOnSmp) {
  Machine machine(SmpConfig(2, SchedulerKind::kLinux));
  // Three CPU hogs on two CPUs force migrations.
  SpinnerBehavior a(MsToCycles(5), MsToCycles(500));
  SpinnerBehavior b(MsToCycles(5), MsToCycles(500));
  SpinnerBehavior c(MsToCycles(5), MsToCycles(500));
  TaskParams params;
  params.behavior = &a;
  machine.CreateTask(params);
  params.behavior = &b;
  machine.CreateTask(params);
  params.behavior = &c;
  machine.CreateTask(params);
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(10)));
  EXPECT_GT(machine.stats().migrations, 0u);
}

TEST(MachineLockModelTest, LockWaitAccumulatesOnSmp) {
  Machine machine(SmpConfig(4, SchedulerKind::kLinux));
  std::vector<std::unique_ptr<YielderBehavior>> behaviors;
  for (int i = 0; i < 16; ++i) {
    behaviors.push_back(std::make_unique<YielderBehavior>(UsToCycles(20), 500));
    TaskParams params;
    params.behavior = behaviors.back().get();
    machine.CreateTask(params);
  }
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(60)));
  // Four CPUs hammering schedule() through one run-queue lock must contend.
  EXPECT_GT(machine.scheduler().stats().lock_wait_cycles, 0u);
}

TEST(MachineTickRegressionTest, NoCounterDecrementDuringSchedulePending) {
  // Regression: a tick must not decrement the counter of a task whose CPU is
  // inside schedule() — the task may already sit in the ELSC table, and an
  // in-list counter change corrupts the table's ordering invariants (this
  // deadlocked VolanoMark runs before the fix).
  Machine machine(UpConfig(SchedulerKind::kElsc));
  std::vector<std::unique_ptr<YielderBehavior>> behaviors;
  for (int i = 0; i < 8; ++i) {
    behaviors.push_back(std::make_unique<YielderBehavior>(UsToCycles(10), 20000));
    TaskParams params;
    params.behavior = behaviors.back().get();
    machine.CreateTask(params);
  }
  machine.Start();
  // With invariant checks on, any in-table counter corruption aborts.
  EXPECT_TRUE(machine.RunUntilAllExited(SecToCycles(120)));
}

TEST(MachinePriorityTest, SetTaskPriorityRefilesTask) {
  Machine machine(UpConfig(SchedulerKind::kElsc));
  SpinnerBehavior hog(MsToCycles(5), SecToCycles(1));
  SpinnerBehavior beneficiary(MsToCycles(5), MsToCycles(50));
  TaskParams params;
  params.behavior = &hog;
  Task* hog_task = machine.CreateTask(params);
  params.behavior = &beneficiary;
  params.priority = 10;
  Task* weak = machine.CreateTask(params);
  machine.Start();
  machine.RunFor(MsToCycles(10));
  machine.SetTaskPriority(weak, 40);
  EXPECT_EQ(weak->priority, 40);
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(10)));
  (void)hog_task;
}

// The task registry is the task arena. Fork storms and exits churn the
// population of a chaos run; midway and at the end, all_tasks() holds every
// task ever created, in creation order (pids only grow), zombies included,
// and live_tasks() counts the ones that have not exited.
TEST(MachineArenaTest, ZombiesStayRegisteredByDefault) {
  for (SchedulerKind kind : AllSchedulerKinds()) {
    SCOPED_TRACE(SchedulerKindName(kind));
    Machine machine(SmpConfig(2, kind));
    ChaosMixConfig mix;
    mix.seed = 5;
    ChaosMixWorkload workload(machine, mix);
    workload.Setup();
    FaultInjector injector(machine, FullChaosPlan(5));
    injector.Arm();
    machine.Start();
    const auto check_registry = [&machine](bool expect_live) {
      const SlabArena<Task>& tasks = machine.all_tasks();
      ASSERT_EQ(tasks.size(), machine.stats().tasks_created);
      int last_pid = 0;
      size_t live = 0;
      for (const Task* task : tasks) {
        EXPECT_GT(task->pid, last_pid) << "registry out of creation order";
        last_pid = task->pid;
        live += task->state == TaskState::kZombie ? 0 : 1;
      }
      EXPECT_EQ(machine.live_tasks(), live);
      EXPECT_EQ(live > 0, expect_live);
      EXPECT_GT(tasks.size(), live) << "exited tasks must stay registered";
    };
    ASSERT_TRUE(machine.RunUntil([&injector] { return injector.stats().storm_tasks > 0; },
                                 SecToCycles(5)));
    check_registry(true);
    ASSERT_TRUE(machine.RunUntil([&workload] { return workload.Done(); }, SecToCycles(120)));
    check_registry(false);
  }
}

// What a federation node pays per task: one CPU, ELSC, one 20-user room,
// measured once every connection is up. Arena chunks are value-initialized
// when carved, so unused slots count: this bound fails if chunks outgrow
// the node's task count or Task gains padding.
TEST(MachineArenaTest, FederationNodeBytesPerTask) {
  EXPECT_LE(sizeof(Task), 288u);
  Machine machine(MakeMachineConfig(KernelConfig::kSmp1, SchedulerKind::kElsc, 7));
  VolanoConfig chat;
  chat.rooms = 1;
  chat.users_per_room = 20;
  VolanoWorkload volano(machine, chat);
  volano.Setup();
  machine.Start();
  ASSERT_TRUE(machine.RunUntil([&volano] { return volano.chat_started(); }, SecToCycles(60)));
  ASSERT_GE(machine.live_tasks(), 80u);  // Four threads per connection.
  EXPECT_LE(machine.task_arena_bytes() / machine.live_tasks(), 312u)
      << machine.task_arena_bytes() << " arena bytes for " << machine.live_tasks() << " tasks";
}

}  // namespace
}  // namespace elsc
