// Fault-injection + auditor tests (the chaos suite, `ctest -L chaos`):
//
//  * every injector, alone and combined, against all four schedulers with
//    the strict auditor enabled — the run must drain with zero invariant
//    violations and no watchdog firing;
//  * deliberately-broken schedulers (dropped wakeups, corrupted counters,
//    lazy idling) must be caught by the matching audit counter or watchdog;
//  * chaos runs are deterministic: same plan + seed → bit-identical digest.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/api/simulation.h"
#include "src/sched/linux_scheduler.h"

namespace elsc {
namespace {

ChaosMixConfig SmallMix(uint64_t seed) {
  ChaosMixConfig mix;
  mix.seed = seed;
  return mix;
}

// The per-injector plans: FullChaosPlan with everything else switched off.
FaultPlan OnlyTimerChaos(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.timer_period = MsToCycles(10);
  plan.tick_drop_rate = 0.5;
  plan.tick_jitter_max = MsToCycles(3);
  return plan;
}

FaultPlan OnlyForkStorms(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.fork_storm_period = MsToCycles(20);
  plan.fork_storm_children = 5;
  plan.fork_storm_bursts = 4;
  return plan;
}

FaultPlan OnlySpuriousWakes(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.spurious_wake_period = MsToCycles(3);
  plan.spurious_wakes_per_burst = 4;
  return plan;
}

FaultPlan OnlyYieldHammer(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.yield_hammer_tasks = 6;
  plan.yield_hammer_iterations = 80;
  return plan;
}

FaultPlan OnlyCpuStalls(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.cpu_stall_period = MsToCycles(40);
  plan.cpu_stall_duration = MsToCycles(15);
  plan.cpu_stall_count = 5;
  return plan;
}

FaultPlan OnlyLockStalls(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.lock_stall_period = MsToCycles(15);
  plan.lock_stall_cycles = UsToCycles(400);
  return plan;
}

struct InjectorCase {
  const char* name;
  FaultPlan (*make)(uint64_t seed);
};

constexpr InjectorCase kInjectors[] = {
    {"timer", OnlyTimerChaos},     {"storm", OnlyForkStorms},
    {"spurious", OnlySpuriousWakes}, {"yield", OnlyYieldHammer},
    {"stall", OnlyCpuStalls},      {"lock", OnlyLockStalls},
    {"full", FullChaosPlan},
};

constexpr SchedulerKind kAllSchedulers[] = {
    SchedulerKind::kLinux, SchedulerKind::kElsc, SchedulerKind::kHeap,
    SchedulerKind::kMultiQueue, SchedulerKind::kO1};

class FaultInjectionTest : public ::testing::TestWithParam<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(AllSchedulers, FaultInjectionTest,
                         ::testing::ValuesIn(kAllSchedulers),
                         [](const auto& info) {
                           return std::string(SchedulerKindName(info.param));
                         });

// Acceptance gate: every injector, auditor strict, zero violations, run
// drains to completion on every scheduler.
TEST_P(FaultInjectionTest, EveryInjectorSurvivesStrictAudit) {
  for (const InjectorCase& injector : kInjectors) {
    SCOPED_TRACE(std::string("injector=") + injector.name +
                 " scheduler=" + SchedulerKindName(GetParam()));
    ChaosOptions chaos;
    chaos.faults = injector.make(/*seed=*/42);
    chaos.audit = StrictAudit();
    const ChaosMixRun run =
        RunChaosMix(MakeMachineConfig(KernelConfig::kSmp2, GetParam(), 42),
                    SmallMix(42), SecToCycles(120), chaos);
    EXPECT_TRUE(run.result.completed);
    EXPECT_FALSE(run.stats.failed) << run.stats.failure;
    EXPECT_EQ(run.stats.audit.violations(), 0u)
        << "conservation=" << run.stats.audit.conservation_violations
        << " counter=" << run.stats.audit.counter_violations
        << " structure=" << run.stats.audit.structure_violations
        << " table=" << run.stats.audit.table_violations
        << " ordering=" << run.stats.audit.ordering_violations;
    EXPECT_EQ(run.stats.audit.watchdog_firings(), 0u);
    EXPECT_GT(run.stats.audit.audits, 0u);
    EXPECT_GT(run.stats.audit.picks_audited, 0u);
  }
}

// The UP kernel path (no SMP semantics) under the full plan, for coverage of
// the uniprocessor stall/tick paths.
TEST_P(FaultInjectionTest, FullChaosOnUniprocessorKernel) {
  ChaosOptions chaos;
  chaos.faults = FullChaosPlan(7);
  chaos.audit = StrictAudit();
  const ChaosMixRun run =
      RunChaosMix(MakeMachineConfig(KernelConfig::kUp, GetParam(), 7),
                  SmallMix(7), SecToCycles(120), chaos);
  EXPECT_TRUE(run.result.completed);
  EXPECT_FALSE(run.stats.failed) << run.stats.failure;
  EXPECT_EQ(run.stats.audit.violations(), 0u);
}

// Same plan + seed twice → bit-identical runs (injector RNG is private and
// fully seeded; chaos changes nothing about determinism).
TEST_P(FaultInjectionTest, ChaosRunsAreDeterministic) {
  auto digest = [&] {
    ChaosOptions chaos;
    chaos.faults = FullChaosPlan(11);
    chaos.audit = StrictAudit();
    const ChaosMixRun run =
        RunChaosMix(MakeMachineConfig(KernelConfig::kSmp4, GetParam(), 11),
                    SmallMix(11), SecToCycles(120), chaos);
    return RunStatsDigest(run.stats) + "|" + EngineDigest(run.stats);
  };
  EXPECT_EQ(digest(), digest());
}

// The injectors actually injected: full plan reports activity on every
// channel (on a global-lock scheduler, where lock stalls apply).
TEST(FaultInjectorActivityTest, FullPlanTouchesEveryChannel) {
  ChaosOptions chaos;
  // The full preset, with the slow-period injectors (storms at 250 ms,
  // stalls at 400 ms) tightened so they fire several times before the mix
  // drains.
  chaos.faults = FullChaosPlan(3);
  chaos.faults.fork_storm_period = MsToCycles(25);
  chaos.faults.cpu_stall_period = MsToCycles(35);
  chaos.faults.cpu_stall_duration = MsToCycles(8);
  ChaosMixConfig mix = SmallMix(3);
  mix.spinners = 20;
  mix.interactive = 12;
  chaos.audit = StrictAudit();
  const ChaosMixRun run = RunChaosMix(
      MakeMachineConfig(KernelConfig::kSmp2, SchedulerKind::kElsc, 3), mix,
      SecToCycles(120), chaos);
  EXPECT_FALSE(run.stats.failed) << run.stats.failure;
  const FaultStats& f = run.stats.faults;
  EXPECT_GT(f.tick_drops + f.tick_jitters, 0u);
  EXPECT_GT(f.storm_bursts, 0u);
  EXPECT_GT(f.storm_tasks, f.storm_bursts);
  EXPECT_GT(f.spurious_wakes, 0u);
  EXPECT_EQ(f.yield_tasks, 4u);
  EXPECT_GT(f.cpu_stalls, 0u);
  EXPECT_GT(f.lock_stalls, 0u);
  // And the machine consumed them (consumption may lag the final injection:
  // a drop queued after the last tick, or a stall aimed at an
  // already-stalled CPU, never lands).
  EXPECT_LE(run.stats.machine.ticks_dropped, f.tick_drops);
  EXPECT_LE(run.stats.machine.cpu_stalls, f.cpu_stalls);
  EXPECT_GT(run.stats.machine.cpu_stalls, 0u);
  EXPECT_GT(run.stats.machine.lock_stall_cycles, 0u);
}

// ---------------------------------------------------------------------------
// Sabotaged schedulers: the auditor must catch each corruption class.
// ---------------------------------------------------------------------------

// Drops every Nth wakeup's add_to_runqueue: the classic lost-wakeup bug.
class DroppedWakeupScheduler : public LinuxScheduler {
 public:
  using LinuxScheduler::LinuxScheduler;
  void AddToRunQueue(Task* task) override {
    if (++adds_ % 5 == 0) {
      return;  // Silently lose the task.
    }
    LinuxScheduler::AddToRunQueue(task);
  }

 private:
  int adds_ = 0;
};

// Corrupts the picked task's counter past any legal quantum.
class CounterCorruptingScheduler : public LinuxScheduler {
 public:
  using LinuxScheduler::LinuxScheduler;
  Task* Schedule(int this_cpu, Task* prev, CostMeter& meter) override {
    Task* next = LinuxScheduler::Schedule(this_cpu, prev, meter);
    if (next != nullptr && !PolicyIsRealtime(next->policy)) {
      next->counter = 500;  // Way past 2 * kMaxPriority.
    }
    return next;
  }
};

// Idles every Nth schedule() despite runnable candidates.
class LazyIdleScheduler : public LinuxScheduler {
 public:
  using LinuxScheduler::LinuxScheduler;
  Task* Schedule(int this_cpu, Task* prev, CostMeter& meter) override {
    Task* next = LinuxScheduler::Schedule(this_cpu, prev, meter);
    if (next != nullptr && ++picks_ % 4 == 0) {
      return nullptr;  // Leave the work on the queue and idle instead.
    }
    return next;
  }

 private:
  int picks_ = 0;
};

template <typename Sabotage>
ChaosMixRun RunSabotaged(const AuditConfig& audit) {
  MachineConfig mc = MakeMachineConfig(KernelConfig::kSmp2, SchedulerKind::kLinux, 5);
  mc.scheduler_factory = [](const CostModel& cost_model, TaskList* tasks,
                            const SchedulerConfig& config) -> std::unique_ptr<Scheduler> {
    return std::make_unique<Sabotage>(cost_model, tasks, config);
  };
  ChaosOptions chaos;
  chaos.audit = audit;
  return RunChaosMix(mc, SmallMix(5), SecToCycles(30), chaos);
}

TEST(SabotagedSchedulerTest, DroppedWakeupCaughtByConservationAndWatchdog) {
  AuditConfig audit = StrictAudit();
  audit.starvation_threshold = MsToCycles(400);
  const ChaosMixRun run = RunSabotaged<DroppedWakeupScheduler>(audit);
  EXPECT_GT(run.stats.audit.conservation_violations, 0u);
  // The lost task can never run again; the starvation watchdog must fail
  // the run with a structured diagnosis.
  EXPECT_TRUE(run.stats.failed);
  EXPECT_GE(run.stats.audit.starvation_reports, 1u);
  EXPECT_NE(run.stats.failure.find("starvation"), std::string::npos)
      << run.stats.failure;
  EXPECT_FALSE(run.result.completed);
}

TEST(SabotagedSchedulerTest, CounterCorruptionCaughtByRangeAudit) {
  AuditConfig audit = StrictAudit();
  audit.starvation_threshold = 0;  // Let the run drain; corruption is benign.
  const ChaosMixRun run = RunSabotaged<CounterCorruptingScheduler>(audit);
  EXPECT_GT(run.stats.audit.counter_violations, 0u);
}

TEST(SabotagedSchedulerTest, LazyIdlingCaughtByOrderingAudit) {
  AuditConfig audit = StrictAudit();
  audit.starvation_threshold = 0;
  const ChaosMixRun run = RunSabotaged<LazyIdleScheduler>(audit);
  EXPECT_GT(run.stats.audit.ordering_violations, 0u);
}

// A healthy scheduler with no faults: the auditor is quiet and free of
// false positives even with the watchdog armed tight.
TEST(SabotagedSchedulerTest, HealthySchedulerProducesNoViolations) {
  for (SchedulerKind kind : kAllSchedulers) {
    SCOPED_TRACE(SchedulerKindName(kind));
    ChaosOptions chaos;
    chaos.audit = StrictAudit();
    chaos.audit.starvation_threshold = SecToCycles(5);
    chaos.audit.livelock_window = MsToCycles(500);
    const ChaosMixRun run =
        RunChaosMix(MakeMachineConfig(KernelConfig::kSmp2, kind, 9),
                    SmallMix(9), SecToCycles(60), chaos);
    EXPECT_TRUE(run.result.completed);
    EXPECT_FALSE(run.stats.failed) << run.stats.failure;
    EXPECT_EQ(run.stats.audit.violations(), 0u);
    EXPECT_EQ(run.stats.audit.watchdog_firings(), 0u);
  }
}

// Chaos layered onto the paper workloads (not just the mix): volano under
// full chaos with strict audit still completes clean on every scheduler.
TEST(ChaosOnPaperWorkloadsTest, VolanoSurvivesFullChaos) {
  for (SchedulerKind kind : kAllSchedulers) {
    SCOPED_TRACE(SchedulerKindName(kind));
    VolanoConfig volano;
    volano.rooms = 1;
    volano.users_per_room = 6;
    volano.messages_per_user = 6;
    ChaosOptions chaos;
    chaos.faults = FullChaosPlan(13);
    chaos.audit = StrictAudit();
    const VolanoRun run = RunVolano(MakeMachineConfig(KernelConfig::kSmp2, kind, 13),
                                    volano, SecToCycles(3600), chaos);
    EXPECT_TRUE(run.result.completed);
    EXPECT_FALSE(run.stats.failed) << run.stats.failure;
    EXPECT_EQ(run.stats.audit.violations(), 0u);
  }
}

}  // namespace
}  // namespace elsc
