// Tests for the O(1) scheduler backend: the 140-level priority mapping,
// bitmap-driven picking, timeslice expiry into the expired array, the
// epoch-turnover array swap, deterministic load balancing, and the per-CPU
// lock Machine integration.

#include "src/sched/o1_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/api/simulation.h"
#include "src/base/rng.h"
#include "src/harness/run_matrix.h"
#include "src/kernel/policy.h"
#include "src/smp/machine.h"
#include "src/workloads/volano.h"
#include "tests/sched_test_util.h"

namespace elsc {
namespace {

class O1SchedulerTest : public ::testing::Test {
 protected:
  O1SchedulerTest() { Rebuild(2, true); }

  void Rebuild(int cpus, bool smp) {
    sched_ = std::make_unique<O1Scheduler>(CostModel::PentiumII(), factory_.task_list(),
                                           SchedulerConfig{cpus, smp});
  }

  Task* Schedule(int cpu, Task* prev) {
    CostMeter meter(sched_->cost_model());
    Task* next = sched_->Schedule(cpu, prev, meter);
    sched_->CheckInvariants();
    return next;
  }

  TaskFactory factory_;
  std::unique_ptr<O1Scheduler> sched_;
};

TEST_F(O1SchedulerTest, DoesNotUseGlobalLock) {
  EXPECT_FALSE(sched_->uses_global_lock());
}

TEST_F(O1SchedulerTest, PrioIndexMapsRealtimeBeforeTimeshare) {
  Task* fifo_hi = factory_.NewRealtime(kSchedFifo, kMaxRtPriority);
  Task* fifo_lo = factory_.NewRealtime(kSchedFifo, 0);
  Task* rr_mid = factory_.NewRealtime(kSchedRr, 50);
  Task* other_hi = factory_.NewTask(20, kMaxPriority);
  Task* other_def = factory_.NewTask(20, kDefaultPriority);
  Task* other_lo = factory_.NewTask(20, kMinPriority);
  EXPECT_EQ(O1Scheduler::PrioIndexOf(*fifo_hi), 0);
  EXPECT_EQ(O1Scheduler::PrioIndexOf(*rr_mid), 49);
  EXPECT_EQ(O1Scheduler::PrioIndexOf(*fifo_lo), 99);
  EXPECT_EQ(O1Scheduler::PrioIndexOf(*other_hi), 100);
  EXPECT_EQ(O1Scheduler::PrioIndexOf(*other_def), 120);
  EXPECT_EQ(O1Scheduler::PrioIndexOf(*other_lo), 139);
  // Every real-time index is more urgent than every SCHED_OTHER index.
  EXPECT_LT(O1Scheduler::PrioIndexOf(*fifo_lo), O1Scheduler::PrioIndexOf(*other_hi));
}

TEST_F(O1SchedulerTest, WakeupsGoToHomeCpuQueue) {
  Task* a = factory_.NewTask();
  a->processor = 0;
  Task* b = factory_.NewTask();
  b->processor = 1;
  sched_->AddToRunQueue(a);
  sched_->AddToRunQueue(b);
  EXPECT_EQ(sched_->QueueDepth(0), 1u);
  EXPECT_EQ(sched_->QueueDepth(1), 1u);
  EXPECT_EQ(sched_->nr_running(), 2u);
}

TEST_F(O1SchedulerTest, PickIsByPriorityIndexNotGoodness) {
  // A huge counter is worthless against a better priority level: the O(1)
  // pick reads the bitmap, never a goodness value.
  Task* fat = factory_.NewTask(/*counter=*/40, /*priority=*/10);
  fat->processor = 0;
  Task* urgent = factory_.NewTask(/*counter=*/1, /*priority=*/30);
  urgent->processor = 0;
  Task* rt = factory_.NewRealtime(kSchedFifo, 1);
  rt->processor = 0;
  sched_->AddToRunQueue(fat);
  sched_->AddToRunQueue(urgent);
  sched_->AddToRunQueue(rt);
  EXPECT_EQ(Schedule(0, nullptr), rt);
  rt->has_cpu = 1;
  // An idle CPU 1 pulls from the loaded peer: the claimed rt task is skipped
  // and the best *pullable* priority level moves — again by index, not by
  // counter size.
  EXPECT_EQ(Schedule(1, nullptr), urgent);
  EXPECT_EQ(sched_->stats().pull_migrations, 1u);
}

TEST_F(O1SchedulerTest, EqualPriorityIsFifoWithinList) {
  Task* first = factory_.NewTask(20, 20);
  first->processor = 0;
  Task* second = factory_.NewTask(20, 20);
  second->processor = 0;
  sched_->AddToRunQueue(first);
  sched_->AddToRunQueue(second);
  EXPECT_EQ(Schedule(0, nullptr), first);
}

TEST_F(O1SchedulerTest, ZeroCounterArrivalWaitsForNextEpoch) {
  // A SCHED_OTHER task enqueued with nothing left of its quantum lands in
  // the expired array: the current epoch owes it nothing.
  Task* drained = factory_.NewTask(/*counter=*/0, /*priority=*/20);
  drained->processor = 0;
  Task* fresh = factory_.NewTask(/*counter=*/5, /*priority=*/20);
  fresh->processor = 0;
  sched_->AddToRunQueue(drained);
  sched_->AddToRunQueue(fresh);
  const int active = sched_->active_slot(0);
  EXPECT_FALSE(ListEmpty(sched_->ListAt(0, active ^ 1, O1Scheduler::PrioIndexOf(*drained))));
  // The fresh task wins even though both share a priority level and the
  // drained one arrived first.
  EXPECT_EQ(Schedule(0, nullptr), fresh);
}

TEST_F(O1SchedulerTest, ExpiryRefillsIntoExpiredArrayThenSwaps) {
  Task* only = factory_.NewTask(/*counter=*/0, /*priority=*/17);
  only->processor = 0;
  Task* other = factory_.NewTask(/*counter=*/4, /*priority=*/17);
  other->processor = 0;
  // Manually file `only` as the running task: it sits in the active array
  // (it was picked before its quantum drained), `other` queued behind it.
  only->counter = 3;
  sched_->AddToRunQueue(only);
  sched_->AddToRunQueue(other);
  ASSERT_EQ(Schedule(0, nullptr), only);
  only->has_cpu = 1;
  only->counter = 0;  // Ticks drain the quantum.

  // Expiry: prev refills and moves to the expired array; the peer runs.
  const uint64_t swaps_before = sched_->stats().array_swaps;
  Task* next = Schedule(0, only);
  EXPECT_EQ(next, other);
  only->has_cpu = 0;
  other->has_cpu = 1;
  EXPECT_EQ(only->counter, only->priority);
  const int active = sched_->active_slot(0);
  EXPECT_FALSE(ListEmpty(sched_->ListAt(0, active ^ 1, O1Scheduler::PrioIndexOf(*only))));

  // Drain the peer too: the active array empties, the arrays swap, and the
  // first expired task starts the new epoch.
  other->counter = 0;
  next = Schedule(0, other);
  EXPECT_EQ(next, only);
  EXPECT_EQ(sched_->stats().array_swaps, swaps_before + 1);
}

TEST_F(O1SchedulerTest, RoundRobinRotatesWithoutExpiring) {
  Task* rr_a = factory_.NewRealtime(kSchedRr, 10);
  rr_a->processor = 0;
  rr_a->counter = 0;
  rr_a->priority = 20;
  Task* rr_b = factory_.NewRealtime(kSchedRr, 10);
  rr_b->processor = 0;
  rr_b->counter = 5;
  sched_->AddToRunQueue(rr_a);
  sched_->AddToRunQueue(rr_b);
  ASSERT_EQ(Schedule(0, nullptr), rr_a);
  rr_a->has_cpu = 1;
  rr_a->counter = 0;
  // RR rotation: refill + tail of the same list — no expired-array trip.
  Task* next = Schedule(0, rr_a);
  EXPECT_EQ(next, rr_b);
  EXPECT_EQ(rr_a->counter, rr_a->priority);
  EXPECT_EQ(sched_->stats().array_swaps, 0u);
}

TEST_F(O1SchedulerTest, EpochFairnessBoundsStarvation) {
  // N equal tasks under permanent expiry: every task runs exactly once per
  // epoch — the expired array is the starvation bound.
  Rebuild(1, true);
  constexpr int kTasks = 4;
  constexpr int kRounds = 40;
  std::vector<Task*> tasks;
  std::vector<int> picks(kTasks, 0);
  for (int i = 0; i < kTasks; ++i) {
    Task* t = factory_.NewTask(/*counter=*/5, /*priority=*/20);
    t->processor = 0;
    sched_->AddToRunQueue(t);
    tasks.push_back(t);
  }
  Task* prev = nullptr;
  for (int round = 0; round < kRounds; ++round) {
    Task* next = Schedule(0, prev);
    ASSERT_NE(next, nullptr);
    if (prev != nullptr && prev != next) {
      prev->has_cpu = 0;
    }
    next->has_cpu = 1;
    for (int i = 0; i < kTasks; ++i) {
      if (tasks[i] == next) {
        ++picks[i];
      }
    }
    next->counter = 0;  // The whole quantum burns before the next pick.
    prev = next;
  }
  const int lo = *std::min_element(picks.begin(), picks.end());
  const int hi = *std::max_element(picks.begin(), picks.end());
  EXPECT_GE(lo, kRounds / kTasks - 1);
  EXPECT_LE(hi - lo, 1) << "a task fell more than one epoch behind";
}

TEST_F(O1SchedulerTest, IdleCpuPullsFromBusiestPeer) {
  Task* a = factory_.NewTask(20, 20);
  a->processor = 1;
  Task* b = factory_.NewTask(20, 20);
  b->processor = 1;
  sched_->AddToRunQueue(a);
  sched_->AddToRunQueue(b);
  CostMeter meter(sched_->cost_model());
  Task* next = sched_->Schedule(0, nullptr, meter);
  sched_->CheckInvariants();
  EXPECT_EQ(next, a);  // Front of the most-urgent source list.
  EXPECT_EQ(sched_->stats().pull_migrations, 1u);
  EXPECT_EQ(sched_->QueueDepth(0), 1u);
  EXPECT_EQ(sched_->QueueDepth(1), 1u);
  // The pull reported the source CPU's lock for the Machine's double-lock.
  ASSERT_EQ(meter.remote_locks().size(), 1u);
  EXPECT_EQ(meter.remote_locks()[0], 1);
}

TEST_F(O1SchedulerTest, IdlePullLeavesLoneTaskAlone) {
  // A peer running exactly one task is not "busy": pulling its only task
  // would just bounce work between caches.
  Task* lone = factory_.NewTask(20, 20);
  lone->processor = 1;
  sched_->AddToRunQueue(lone);
  lone->has_cpu = 1;  // Executing on CPU 1.
  EXPECT_EQ(Schedule(0, nullptr), nullptr);
  EXPECT_EQ(sched_->stats().pull_migrations, 0u);
}

TEST_F(O1SchedulerTest, PullPrefersExpiredArray) {
  Rebuild(2, true);
  Task* active_task = factory_.NewTask(/*counter=*/10, /*priority=*/20);
  active_task->processor = 1;
  Task* expired_task = factory_.NewTask(/*counter=*/0, /*priority=*/20);
  expired_task->processor = 1;
  sched_->AddToRunQueue(active_task);
  sched_->AddToRunQueue(expired_task);  // counter == 0 → expired array.
  Task* next = Schedule(0, nullptr);
  // The expired-array task migrates (cache-cold anyway, waited longest) and
  // starts its next timeslice on the pulling CPU.
  EXPECT_EQ(next, expired_task);
  EXPECT_EQ(expired_task->counter, expired_task->priority);
}

TEST_F(O1SchedulerTest, SkipsTasksRunningElsewhere) {
  Task* busy = factory_.NewTask(40, 40);
  busy->processor = 0;
  sched_->AddToRunQueue(busy);
  busy->has_cpu = 1;  // Executing on another CPU.
  Task* free_task = factory_.NewTask(5, 5);
  free_task->processor = 0;
  sched_->AddToRunQueue(free_task);
  EXPECT_EQ(Schedule(0, nullptr), free_task);
}

TEST_F(O1SchedulerTest, RunningTaskPriorityChangeRefilesLazily) {
  Task* t = factory_.NewTask(10, 20);
  t->processor = 0;
  sched_->AddToRunQueue(t);
  ASSERT_EQ(Schedule(0, nullptr), t);
  t->has_cpu = 1;
  // Priority changes while executing: the queue cannot re-file a running
  // task (the Machine's SetTaskPriority skips has_cpu tasks), so the stale
  // filing persists until t's next schedule() fixes it.
  t->priority = kMaxPriority;
  sched_->CheckInvariants();  // Stale-but-running filing is legal.
  ASSERT_EQ(Schedule(0, t), t);
  const int active = sched_->active_slot(0);
  EXPECT_FALSE(ListEmpty(sched_->ListAt(0, active, O1Scheduler::PrioIndexOf(*t))));
}

TEST_F(O1SchedulerTest, PreemptionOnlyTargetsHomeCpu) {
  Task* woken = factory_.NewTask(20, kMaxPriority);
  woken->processor = 1;
  Task* running = factory_.NewTask(20, kMinPriority);
  EXPECT_EQ(sched_->PreemptionDelta(*woken, *running, 0), 0);
  EXPECT_GT(sched_->PreemptionDelta(*woken, *running, 1), 0);
  // An expired SCHED_OTHER wakeup never preempts: it has no quantum to run.
  woken->counter = 0;
  EXPECT_EQ(sched_->PreemptionDelta(*woken, *running, 1), 0);
}

TEST_F(O1SchedulerTest, IdleWhenNothingAnywhere) {
  EXPECT_EQ(Schedule(0, nullptr), nullptr);
  EXPECT_EQ(sched_->stats().idle_schedules, 1u);
}

TEST_F(O1SchedulerTest, DebugStringRendersQueues) {
  Task* t = factory_.NewTask();
  t->processor = 0;
  sched_->AddToRunQueue(t);
  const std::string s = sched_->DebugString();
  EXPECT_NE(s.find("cpu0"), std::string::npos);
  EXPECT_NE(s.find("nr_running=1"), std::string::npos);
}

// Property sweep: thousands of random run-queue operations with the full
// structural invariant check after every single one. The harness mirrors the
// Machine's contract: currents keep has_cpu while on the queue, blocked
// tasks leave through their final schedule(), priority changes re-file only
// non-running tasks.
TEST(O1SchedulerPropertyTest, InvariantsHoldUnderRandomOperations) {
  constexpr int kCpus = 3;
  TaskFactory factory;
  O1Scheduler sched(CostModel::PentiumII(), factory.task_list(),
                    SchedulerConfig{kCpus, true});
  Rng rng(2026);
  std::vector<Task*> tasks;
  for (int i = 0; i < 14; ++i) {
    Task* t;
    if (i % 5 == 4) {
      t = factory.NewRealtime(i % 2 == 0 ? kSchedFifo : kSchedRr,
                              1 + static_cast<long>(rng.NextBelow(kMaxRtPriority)));
    } else {
      t = factory.NewTask(static_cast<long>(rng.NextBelow(41)),
                          1 + static_cast<long>(rng.NextBelow(40)));
    }
    t->processor = static_cast<int>(rng.NextBelow(kCpus));
    tasks.push_back(t);
  }
  Task* current[kCpus] = {nullptr, nullptr, nullptr};
  auto is_current = [&current](const Task* t) {
    for (const Task* c : current) {
      if (c == t) return true;
    }
    return false;
  };

  for (int op = 0; op < 4000; ++op) {
    Task* t = tasks[rng.NextBelow(tasks.size())];
    switch (rng.NextBelow(8)) {
      case 0:  // Wakeup.
        if (!t->OnRunQueue() && !is_current(t)) {
          t->state = TaskState::kRunning;
          t->processor = static_cast<int>(rng.NextBelow(kCpus));
          sched.AddToRunQueue(t);
        }
        break;
      case 1:  // Silent removal (exit path).
        if (t->OnRunQueue() && !is_current(t)) {
          sched.DelFromRunQueue(t);
        }
        break;
      case 2:
        if (t->OnRunQueue()) {
          sched.MoveFirstRunQueue(t);
        }
        break;
      case 3:
        if (t->OnRunQueue()) {
          sched.MoveLastRunQueue(t);
        }
        break;
      case 4:  // setpriority(): re-file through del/add, never for currents.
        if (!is_current(t)) {
          const long p = 1 + static_cast<long>(rng.NextBelow(40));
          if (t->OnRunQueue()) {
            sched.DelFromRunQueue(t);
            t->priority = p;
            sched.AddToRunQueue(t);
          } else {
            t->priority = p;
          }
        } else {
          // Running task: the field changes, the filing stays until its
          // next schedule() — exactly the lazy re-file window.
          t->priority = 1 + static_cast<long>(rng.NextBelow(40));
        }
        break;
      case 5: {  // Timer tick against a current.
        const int cpu = static_cast<int>(rng.NextBelow(kCpus));
        if (current[cpu] != nullptr && current[cpu]->counter > 0) {
          --current[cpu]->counter;
        }
        break;
      }
      case 6: {  // Block a current (it leaves via its final schedule()).
        const int cpu = static_cast<int>(rng.NextBelow(kCpus));
        if (current[cpu] != nullptr) {
          current[cpu]->state = TaskState::kInterruptible;
        }
        break;
      }
      case 7: {  // schedule().
        const int cpu = static_cast<int>(rng.NextBelow(kCpus));
        Task* prev = current[cpu];
        CostMeter meter(sched.cost_model());
        Task* next = sched.Schedule(cpu, prev, meter);
        if (prev != nullptr && prev != next) {
          prev->has_cpu = 0;
        }
        if (next != nullptr) {
          next->has_cpu = 1;
          next->processor = cpu;
        }
        current[cpu] = next;
        break;
      }
    }
    sched.CheckInvariants();
  }
}

// ---------------------------------------------------------------------------
// Machine integration
// ---------------------------------------------------------------------------

TEST(O1MachineTest, VolanoCompletesWithInvariantsAndNoGlobalLockWait) {
  MachineConfig mc;
  mc.num_cpus = 4;
  mc.smp = true;
  mc.scheduler = SchedulerKind::kO1;
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
  const SchedStats& s = machine.scheduler().stats();
  // No global run-queue lock: global lock-wait only ever gets residual
  // double-lock wait, and per-CPU lock accounting must have fired.
  EXPECT_GT(s.percpu_lock_acquisitions, 0u);
  EXPECT_EQ(machine.stats().lock_stall_cycles, 0u);
  uint64_t per_cpu_acq = 0;
  for (int i = 0; i < machine.num_cpus(); ++i) {
    per_cpu_acq += machine.cpu_lock(i).acquisitions;
  }
  EXPECT_EQ(per_cpu_acq, s.percpu_lock_acquisitions);
}

TEST(O1MachineTest, ChaosRunStaysCleanUnderStrictAudit) {
  ChaosMixConfig mix;
  mix.seed = 7;
  ChaosOptions chaos;
  chaos.faults = FullChaosPlan(7);
  chaos.audit = StrictAudit();
  const ChaosMixRun run = RunChaosMix(
      MakeMachineConfig(KernelConfig::kSmp4, SchedulerKind::kO1, 7), mix,
      SecToCycles(120), chaos);
  EXPECT_FALSE(run.stats.failed) << run.stats.failure;
  EXPECT_GT(run.stats.audit.audits, 0u);
  EXPECT_EQ(run.stats.audit.violations(), 0u)
      << "conservation=" << run.stats.audit.conservation_violations
      << " counter=" << run.stats.audit.counter_violations
      << " structure=" << run.stats.audit.structure_violations
      << " table=" << run.stats.audit.table_violations
      << " ordering=" << run.stats.audit.ordering_violations;
}

// Load balancing is deterministic: pulls are keyed on queue depths and CPU
// indices only, so any job count — and any repeat — produces bit-identical
// digests, with real migrations happening inside the cells.
TEST(O1MachineTest, LoadBalanceIsBitIdenticalAcrossJobCounts) {
  struct Cell {
    KernelConfig kernel;
    uint64_t seed;
  };
  const std::vector<Cell> cells = {
      {KernelConfig::kSmp2, 41},
      {KernelConfig::kSmp4, 42},
      {KernelConfig::kSmp4, 43},
  };
  auto run_one = [&cells](size_t i) {
    VolanoConfig vc;
    vc.rooms = 1;
    vc.users_per_room = 8;
    vc.messages_per_user = 10;
    return RunVolano(
        MakeMachineConfig(cells[i].kernel, SchedulerKind::kO1, cells[i].seed), vc);
  };
  auto run_cell = [&run_one](size_t i) {
    const RunStats stats = run_one(i).stats;
    return RunStatsDigest(stats) + "|" + EngineDigest(stats);
  };
  uint64_t total_pulls = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    total_pulls += run_one(i).stats.sched.pull_migrations;
  }
  EXPECT_GT(total_pulls, 0u) << "no pull migrations — the balancer never ran";
  const std::vector<std::string> serial = RunMatrix(cells.size(), run_cell, 1);
  for (const int jobs : {2, 4}) {
    const std::vector<std::string> parallel = RunMatrix(cells.size(), run_cell, jobs);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i]) << "jobs=" << jobs << " cell=" << i;
    }
  }
  // Re-running serially reproduces the digests exactly (no hidden state).
  EXPECT_EQ(RunMatrix(cells.size(), run_cell, 1), serial);
}

}  // namespace
}  // namespace elsc
