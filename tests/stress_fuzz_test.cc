// Randomized stress sweeps: chaotic mixes of CPU hogs, yield-spinners,
// interactive sleepers, wait-queue waiters with asynchronous wakes, forking
// tasks, and real-time tasks, across schedulers, CPU counts, and seeds —
// all with scheduler invariant checking enabled. The assertions are
// survival properties: nothing corrupts, nothing deadlocks, all finite work
// completes, and the accounting adds up.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "src/api/simulation.h"
#include "src/base/rng.h"
#include "src/smp/machine.h"
#include "src/workloads/micro_behaviors.h"

namespace elsc {
namespace {

// Forks one child (running a small spinner) partway through, then finishes
// its own work.
class FuzzForker : public TaskBehavior {
 public:
  explicit FuzzForker(std::vector<std::unique_ptr<TaskBehavior>>* pool) : pool_(pool) {}

  Segment NextSegment(Machine& machine, Task& task) override {
    if (!forked_) {
      forked_ = true;
      pool_->push_back(std::make_unique<SpinnerBehavior>(MsToCycles(1), MsToCycles(4)));
      TaskParams params;
      params.name = task.name + ".kid";
      params.behavior = pool_->back().get();
      machine.ForkTask(&task, params);
      return Segment::RunAgain(MsToCycles(2));
    }
    return Segment::Exit(MsToCycles(1));
  }

 private:
  std::vector<std::unique_ptr<TaskBehavior>>* pool_;
  bool forked_ = false;
};

struct FuzzCase {
  SchedulerKind kind;
  uint64_t seed;
};

class StressFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, StressFuzzTest,
    ::testing::Values(FuzzCase{SchedulerKind::kLinux, 1}, FuzzCase{SchedulerKind::kLinux, 2},
                      FuzzCase{SchedulerKind::kElsc, 1}, FuzzCase{SchedulerKind::kElsc, 2},
                      FuzzCase{SchedulerKind::kElsc, 3}, FuzzCase{SchedulerKind::kHeap, 1},
                      FuzzCase{SchedulerKind::kHeap, 2}, FuzzCase{SchedulerKind::kMultiQueue, 1},
                      FuzzCase{SchedulerKind::kMultiQueue, 2}, FuzzCase{SchedulerKind::kO1, 1},
                      FuzzCase{SchedulerKind::kO1, 2}),
    [](const auto& info) {
      return std::string(SchedulerKindName(info.param.kind)) + "_seed" +
             std::to_string(info.param.seed);
    });

TEST_P(StressFuzzTest, ChaoticMixSurvivesAndCompletes) {
  const FuzzCase fuzz = GetParam();
  // One-line repro recipe for any failure below.
  SCOPED_TRACE("repro: --gtest_filter='*ChaoticMix*" +
               std::string(SchedulerKindName(fuzz.kind)) + "_seed" +
               std::to_string(fuzz.seed) + "' (scheduler=" +
               SchedulerKindName(fuzz.kind) + " seed=" + std::to_string(fuzz.seed) + ")");
  Rng rng(fuzz.seed * 7919);

  MachineConfig config;
  config.num_cpus = static_cast<int>(1 + rng.NextBelow(4));
  config.smp = config.num_cpus > 1 || rng.NextBool(0.5);
  if (!config.smp) {
    config.num_cpus = 1;
  }
  config.scheduler = fuzz.kind;
  config.seed = fuzz.seed;
  config.check_invariants = true;
  Machine machine(config);

  std::vector<std::unique_ptr<TaskBehavior>> behaviors;
  std::vector<std::unique_ptr<WaitQueue>> queues;
  Cycles total_spinner_work = 0;

  const int population = static_cast<int>(10 + rng.NextBelow(40));
  for (int i = 0; i < population; ++i) {
    TaskParams params;
    params.name = "fuzz-" + std::to_string(i);
    params.priority = static_cast<long>(1 + rng.NextBelow(40));
    const uint64_t flavor = rng.NextBelow(10);
    if (flavor < 3) {
      const Cycles work = MsToCycles(1 + rng.NextBelow(30));
      total_spinner_work += work;
      behaviors.push_back(
          std::make_unique<SpinnerBehavior>(MsToCycles(1 + rng.NextBelow(5)), work));
    } else if (flavor < 5) {
      behaviors.push_back(std::make_unique<YielderBehavior>(UsToCycles(10 + rng.NextBelow(200)),
                                                            50 + rng.NextBelow(400)));
    } else if (flavor < 7) {
      behaviors.push_back(std::make_unique<InteractiveBehavior>(
          UsToCycles(50 + rng.NextBelow(500)), MsToCycles(1 + rng.NextBelow(20)),
          5 + rng.NextBelow(40)));
    } else if (flavor < 8) {
      // A waiter woken by an engine timer a few ms in.
      queues.push_back(std::make_unique<WaitQueue>());
      WaitQueue* wq = queues.back().get();
      behaviors.push_back(std::make_unique<WaiterBehavior>(wq, 1 + rng.NextBelow(3)));
      const int wakes = static_cast<int>(1 + rng.NextBelow(4));
      for (int w = 0; w < wakes; ++w) {
        machine.engine().ScheduleAfter(MsToCycles(5 + rng.NextBelow(100)),
                                       [&machine, wq] { wq->WakeAll(machine); });
      }
    } else if (flavor < 9) {
      behaviors.push_back(std::make_unique<FuzzForker>(&behaviors));
    } else {
      // Real-time: FIFO or RR with a short finite job so it cannot starve
      // the rest forever.
      params.policy = rng.NextBool(0.5) ? kSchedFifo : kSchedRr;
      params.rt_priority = static_cast<long>(1 + rng.NextBelow(99));
      behaviors.push_back(
          std::make_unique<SpinnerBehavior>(MsToCycles(1), MsToCycles(1 + rng.NextBelow(10))));
    }
    params.behavior = behaviors.back().get();
    machine.CreateTask(params);
  }

  machine.Start();
  const bool all_exited = machine.RunUntilAllExited(SecToCycles(240));

  // Waiters whose wakes have all fired may legitimately still sleep if the
  // wake count was below their threshold; everyone else must be done. Rather
  // than special-case, assert global progress: no runnable work left behind.
  if (!all_exited) {
    size_t sleeping = 0;
    for (const auto& task : machine.all_tasks()) {
      if (task->state == TaskState::kInterruptible) {
        ++sleeping;
      } else {
        ASSERT_EQ(task->state, TaskState::kZombie)
            << task->name << " stuck in state " << TaskStateName(task->state);
      }
    }
    EXPECT_EQ(machine.live_tasks(), sleeping);
    EXPECT_EQ(machine.scheduler().nr_running(), 0u);
  }

  // Accounting sanity: every finite spinner completed its exact work.
  Cycles spinner_done = 0;
  for (const auto& behavior : behaviors) {
    if (auto* spinner = dynamic_cast<SpinnerBehavior*>(behavior.get())) {
      spinner_done += spinner->work_done();
    }
  }
  EXPECT_GE(spinner_done, total_spinner_work);
  EXPECT_EQ(machine.stats().tasks_created,
            machine.stats().tasks_exited + machine.live_tasks());
}

// The chaos extension of the sweep: the same scheduler × seed matrix run
// through the fault-injection layer with the strict auditor watching. The
// survival property strengthens from "nothing aborts" to "every audited
// invariant holds under hostile conditions".
TEST_P(StressFuzzTest, FullChaosSweepHoldsEveryAuditedInvariant) {
  const FuzzCase fuzz = GetParam();
  SCOPED_TRACE("repro: --gtest_filter='*FullChaosSweep*" +
               std::string(SchedulerKindName(fuzz.kind)) + "_seed" +
               std::to_string(fuzz.seed) + "' (scheduler=" +
               SchedulerKindName(fuzz.kind) + " seed=" + std::to_string(fuzz.seed) + ")");
  Rng rng(fuzz.seed * 6271);
  const KernelConfig kernels[] = {KernelConfig::kUp, KernelConfig::kSmp1,
                                  KernelConfig::kSmp2, KernelConfig::kSmp4};
  const KernelConfig kernel = kernels[rng.NextBelow(4)];

  ChaosMixConfig mix;
  mix.seed = fuzz.seed;
  mix.spinners = static_cast<int>(4 + rng.NextBelow(10));
  mix.yielders = static_cast<int>(2 + rng.NextBelow(6));
  mix.interactive = static_cast<int>(2 + rng.NextBelow(8));
  mix.waiters = static_cast<int>(1 + rng.NextBelow(6));
  mix.forkers = static_cast<int>(1 + rng.NextBelow(4));
  mix.rt_tasks = static_cast<int>(rng.NextBelow(3));

  ChaosOptions chaos;
  chaos.faults = FullChaosPlan(fuzz.seed * 31 + 7);
  chaos.audit = StrictAudit();

  const ChaosMixRun run = RunChaosMix(MakeMachineConfig(kernel, fuzz.kind, fuzz.seed),
                                      mix, SecToCycles(120), chaos);
  EXPECT_TRUE(run.result.completed);
  EXPECT_FALSE(run.stats.failed) << run.stats.failure;
  EXPECT_EQ(run.stats.audit.violations(), 0u)
      << "conservation=" << run.stats.audit.conservation_violations
      << " counter=" << run.stats.audit.counter_violations
      << " structure=" << run.stats.audit.structure_violations
      << " table=" << run.stats.audit.table_violations
      << " ordering=" << run.stats.audit.ordering_violations;
  EXPECT_EQ(run.stats.audit.watchdog_firings(), 0u);
}

}  // namespace
}  // namespace elsc
