// Golden-digest guard for the Machine's two run-queue lock models.
//
// These digests were recorded from the simulator immediately BEFORE the
// per-CPU lock model (Machine::AcquireCpuLock, CpuLockStats, double-lock
// accounting) replaced the single code path in which per-CPU-queue
// schedulers simply bypassed the global FIFO lock. The refactor is a pure
// accounting change: every pick must produce the same simulated time, the
// same counters, the same digest — for all four pre-existing backends, under
// clean load, full chaos, and a lock-stall-only fault plan that hammers the
// global-lock path specifically. Each cell pins its RunStatsDigest
// (`golden`) and its EngineDigest (`engine`); see the golden-stats suite in
// harness_test.cc for what each covers. Both were re-recorded once, as a
// relayout, when the event-queue counters left the RunStatsDigest and the
// per-CPU lock and O(1) counters joined it.
//
// If this test fails after an *intentional* semantic change, re-record with:
//   ELSC_GOLDEN_PRINT=1 ./lock_model_test
// and paste the printed GUARD/ENGINE lines over the `golden` and `engine`
// fields below.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/api/simulation.h"
#include "src/harness/run_matrix.h"

namespace elsc {
namespace {

enum class CellKind { kVolano, kFullChaos, kLockStallChaos };

struct GuardCell {
  CellKind kind;
  KernelConfig kernel;
  SchedulerKind scheduler;
  uint64_t seed;
  const char* golden;  // RunStatsDigest.
  const char* engine;  // EngineDigest.
};

FaultPlan LockStallOnlyPlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.lock_stall_period = MsToCycles(15);
  plan.lock_stall_cycles = UsToCycles(400);
  return plan;
}

// The cell's RunStatsDigest and EngineDigest.
std::pair<std::string, std::string> RunGuardCell(const GuardCell& cell) {
  const MachineConfig mc = MakeMachineConfig(cell.kernel, cell.scheduler, cell.seed);
  RunStats stats;
  if (cell.kind == CellKind::kVolano) {
    VolanoConfig volano;
    volano.rooms = 1;
    volano.users_per_room = 8;
    volano.messages_per_user = 10;
    stats = RunVolano(mc, volano).stats;
  } else {
    ChaosMixConfig mix;
    mix.seed = cell.seed;
    ChaosOptions chaos;
    chaos.faults = cell.kind == CellKind::kFullChaos ? FullChaosPlan(cell.seed)
                                                     : LockStallOnlyPlan(cell.seed);
    chaos.audit = StrictAudit();
    stats = RunChaosMix(mc, mix, SecToCycles(120), chaos).stats;
  }
  return {RunStatsDigest(stats), EngineDigest(stats)};
}

// All four pre-refactor backends appear in each scenario block. The
// lock-stall block matters most: it pins the pending_lock_stall_ spike and
// the global FIFO lock handoff (kLinux/kElsc/kHeap accrue lock_stall_cycles;
// kMultiQueue — per-CPU queues — must stay immune).
const std::vector<GuardCell>& GuardCells() {
  static const std::vector<GuardCell> cells = {
      {CellKind::kVolano, KernelConfig::kSmp4, SchedulerKind::kLinux, 31,
       "sched:3764,37,9894280,2380158,27130,329,5348,683,347,683,0,1114,193,0,0,0,0,0,0,0,0|"
       "machine:7,3380,683,1081,34,34,0,193,0,0,0,34|faults:0,0,0,0,0,0,0,0,0,0,0,0|"
       "audit:0,0,0,0,0,0,0,0,0|failed:0|elapsed:0x1.3b27fe4bcad9bp-4",
       "events:9923,9736,185,0,5,5"},
      {CellKind::kVolano, KernelConfig::kSmp4, SchedulerKind::kElsc, 31,
       "sched:2747,38,4645500,566373,10095,0,0,494,807,494,787,1072,154,0,0,0,0,0,0,0,0|"
       "machine:6,1902,494,1040,34,34,0,154,0,0,0,34|faults:0,0,0,0,0,0,0,0,0,0,0,0|"
       "audit:0,0,0,0,0,0,0,0,0|failed:0|elapsed:0x1.1e9465523f3dp-4",
       "events:7887,7745,140,0,5,5"},
      {CellKind::kVolano, KernelConfig::kSmp4, SchedulerKind::kHeap, 31,
       "sched:2544,42,3037332,139718,2502,0,0,1689,338,1689,0,885,87,0,0,0,0,0,0,0,0|"
       "machine:7,2164,1689,852,34,34,0,87,0,0,0,34|faults:0,0,0,0,0,0,0,0,0,0,0,0|"
       "audit:0,0,0,0,0,0,0,0,0|failed:0|elapsed:0x1.3fa1b6f47359fp-4",
       "events:7478,7395,81,0,5,5"},
      // The kMultiQueue digests were re-recorded once, when the lost-wake fix
      // landed (RescheduleIdle now marks a mid-schedule() home CPU's
      // need_resched for per-CPU-queue schedulers); the global-lock digests
      // are the untouched pre-refactor originals.
      {CellKind::kVolano, KernelConfig::kSmp4, SchedulerKind::kMultiQueue, 31,
       "sched:3636,41,5199540,0,8257,338,5682,161,458,161,0,1022,194,3636,0,5199540,0,0,0,0,0|"
       "machine:6,3137,161,988,34,34,0,194,0,0,0,34|faults:0,0,0,0,0,0,0,0,0,0,0,0|"
       "audit:0,0,0,0,0,0,0,0,0|failed:0|elapsed:0x1.182d74ad51068p-4",
       "events:9662,9421,239,0,5,5"},
      {CellKind::kFullChaos, KernelConfig::kSmp2, SchedulerKind::kLinux, 32,
       "sched:546,2,2652040,173480,9202,14,28,2,16,2,0,82,3,0,0,0,0,0,0,0,0|"
       "machine:6,528,2,50,32,32,0,3,0,0,0,29|faults:0,2,0,0,9,4,0,0,0,0,0,0|"
       "audit:6,545,0,0,0,0,0,0,0|failed:0|elapsed:0x1.11d37b3cb7407p-4",
       "events:1302,1288,5,0,16,16"},
      {CellKind::kFullChaos, KernelConfig::kSmp2, SchedulerKind::kElsc, 32,
       "sched:551,2,980320,22470,2167,0,0,20,104,20,102,82,8,0,0,0,0,0,0,0,0|"
       "machine:6,445,20,50,32,32,0,8,0,0,0,29|faults:0,2,0,0,9,4,0,0,0,0,0,0|"
       "audit:6,550,0,0,0,0,0,0,0|failed:0|elapsed:0x1.00ad835b69b32p-4",
       "events:1312,1293,10,0,17,17"},
      {CellKind::kFullChaos, KernelConfig::kSmp2, SchedulerKind::kHeap, 32,
       "sched:570,2,704677,5817,568,0,0,453,14,453,0,82,27,0,0,0,0,0,0,0,0|"
       "machine:6,554,453,50,32,32,0,27,0,0,0,30|faults:0,2,0,0,9,4,0,0,0,0,0,0|"
       "audit:6,569,0,0,0,0,0,0,0|failed:0|elapsed:0x1.19548dcbdb0a5p-4",
       "events:1350,1312,29,0,16,16"},
      {CellKind::kFullChaos, KernelConfig::kSmp2, SchedulerKind::kMultiQueue, 32,
       "sched:556,2,1524200,0,4694,0,0,2,5,2,0,82,9,556,0,1524200,0,0,0,0,0|"
       "machine:6,549,2,50,32,32,0,9,0,0,0,29|faults:0,2,0,0,9,4,0,0,0,0,0,0|"
       "audit:6,554,0,0,0,0,0,0,0|failed:0|elapsed:0x1.115761e6a4e52p-4",
       "events:1322,1298,15,0,16,16"},
      {CellKind::kLockStallChaos, KernelConfig::kSmp4, SchedulerKind::kLinux, 33,
       "sched:399,27,879850,377470,2266,41,414,126,45,126,0,80,15,0,0,0,0,0,0,0,0|"
       "machine:7,327,126,52,28,28,0,15,0,0,640000,23|faults:0,0,0,0,0,0,0,4,0,0,0,0|"
       "audit:7,398,0,0,0,0,0,0,0|failed:0|elapsed:0x1.25e8dbf70c3b7p-4",
       "events:1030,1006,19,0,14,14"},
      {CellKind::kLockStallChaos, KernelConfig::kSmp4, SchedulerKind::kElsc, 33,
       "sched:383,19,508360,318430,835,0,0,124,134,124,130,80,7,0,0,0,0,0,0,0,0|"
       "machine:7,230,124,52,28,28,0,7,0,0,640000,27|faults:0,0,0,0,0,0,0,4,0,0,0,0|"
       "audit:7,382,0,0,0,0,0,0,0|failed:0|elapsed:0x1.2424a276b7ed4p-4",
       "events:1004,988,11,0,14,14"},
      {CellKind::kLockStallChaos, KernelConfig::kSmp4, SchedulerKind::kHeap, 33,
       "sched:403,26,453595,441089,377,0,0,173,125,173,0,80,20,0,0,0,0,0,0,0,0|"
       "machine:6,252,173,52,28,28,0,20,0,0,640000,25|faults:0,0,0,0,0,0,0,4,0,0,0,0|"
       "audit:6,402,0,0,0,0,0,0,0|failed:0|elapsed:0x1.1e4110c16e49ep-4",
       "events:1037,1008,24,0,14,14"},
      {CellKind::kLockStallChaos, KernelConfig::kSmp4, SchedulerKind::kMultiQueue, 33,
       "sched:408,30,594240,0,384,129,1399,78,138,78,0,80,17,408,0,594240,0,0,0,0,0|"
       "machine:7,240,78,52,28,28,0,17,0,0,0,23|faults:0,0,0,0,0,0,0,4,0,0,0,0|"
       "audit:7,404,0,0,0,0,0,0,0|failed:0|elapsed:0x1.21f88c6e37ecp-4",
       "events:1045,1015,25,0,14,14"},
  };
  return cells;
}

TEST(LockModelGuardTest, PreRefactorDigestsSurviveAtEveryJobCount) {
  const std::vector<GuardCell>& cells = GuardCells();
  auto run_cell = [&cells](size_t i) { return RunGuardCell(cells[i]); };
  const bool print = std::getenv("ELSC_GOLDEN_PRINT") != nullptr;
  for (const int jobs : {1, 2, 4}) {
    const std::vector<std::pair<std::string, std::string>> digests =
        RunMatrix(cells.size(), run_cell, jobs);
    ASSERT_EQ(digests.size(), cells.size());
    if (print && jobs == 1) {
      for (size_t i = 0; i < digests.size(); ++i) {
        printf("GUARD[%zu] = \"%s\"\nENGINE[%zu] = \"%s\"\n", i,
               digests[i].first.c_str(), i, digests[i].second.c_str());
      }
      fflush(stdout);
    }
    for (size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(digests[i].first, cells[i].golden)
          << "jobs=" << jobs << " cell=" << i << " ("
          << KernelConfigLabel(cells[i].kernel) << "/"
          << SchedulerKindName(cells[i].scheduler) << " seed=" << cells[i].seed
          << ") — the lock-model refactor changed simulated behavior";
      EXPECT_EQ(digests[i].second, cells[i].engine)
          << "jobs=" << jobs << " cell=" << i << " — the engine's event counts moved";
    }
  }
}

// An injected lock-holder stall targets the *global* run-queue lock; the
// per-CPU lock model never holds it, so per-CPU-queue schedulers sail
// through the same plan without accruing a cycle of stall or global wait.
TEST(LockModelGuardTest, PerCpuSchedulersAreImmuneToGlobalLockStalls) {
  for (const SchedulerKind kind : {SchedulerKind::kMultiQueue, SchedulerKind::kO1}) {
    ChaosMixConfig mix;
    mix.seed = 33;
    ChaosOptions chaos;
    chaos.faults = LockStallOnlyPlan(33);
    chaos.audit = StrictAudit();
    const ChaosMixRun run =
        RunChaosMix(MakeMachineConfig(KernelConfig::kSmp4, kind, 33), mix,
                    SecToCycles(120), chaos);
    EXPECT_FALSE(run.stats.failed) << SchedulerKindName(kind) << ": " << run.stats.failure;
    EXPECT_EQ(run.stats.machine.lock_stall_cycles, 0u) << SchedulerKindName(kind);
    // Per-CPU lock accounting ran instead of the global FIFO.
    EXPECT_GT(run.stats.sched.percpu_lock_acquisitions, 0u) << SchedulerKindName(kind);
    EXPECT_EQ(run.stats.sched.percpu_lock_acquisitions, run.stats.sched.schedule_calls)
        << SchedulerKindName(kind);
  }
}

// The global-lock backends do eat the stalls — the immunity above is a
// property of the lock model, not of the plan being a no-op.
TEST(LockModelGuardTest, GlobalLockSchedulersEatTheStalls) {
  ChaosMixConfig mix;
  mix.seed = 33;
  ChaosOptions chaos;
  chaos.faults = LockStallOnlyPlan(33);
  chaos.audit = StrictAudit();
  const ChaosMixRun run =
      RunChaosMix(MakeMachineConfig(KernelConfig::kSmp4, SchedulerKind::kLinux, 33), mix,
                  SecToCycles(120), chaos);
  EXPECT_GT(run.stats.machine.lock_stall_cycles, 0u);
  EXPECT_EQ(run.stats.sched.percpu_lock_acquisitions, 0u);
}

}  // namespace
}  // namespace elsc
