// Differential test: LinuxScheduler's scan over cached goodness keys against
// the literal kernel loop, which walks the run-queue list and reads every
// task's own has_cpu and goodness() on every pick.
//
// Seeded random operation sequences drive both schedulers side by side under
// the Machine's calling protocol (claim the pick, clear prev at dispatch, and
// wake or re-prioritize the outgoing prev between its pick and its dispatch);
// every pick must agree on the task, the examine count and the
// recalculations. Whole-Machine runs then compare RunStatsDigest.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/api/simulation.h"
#include "src/base/assert.h"
#include "src/base/rng.h"
#include "src/base/string_util.h"
#include "src/faults/fault_injector.h"
#include "src/sched/goodness.h"
#include "src/sched/linux_scheduler.h"
#include "tests/sched_test_util.h"

namespace elsc {
namespace {

// kernel/sched.c as written: one list, new tasks at the front, and a
// schedule() that walks the whole list reading has_cpu and goodness().
class ReferenceLinuxScheduler : public Scheduler {
 public:
  ReferenceLinuxScheduler(const CostModel& cost_model, TaskList* all_tasks,
                          const SchedulerConfig& config)
      : Scheduler(cost_model, all_tasks, config) {
    InitListHead(&head_);
  }

  const char* name() const override { return "linux-reference"; }

  void AddToRunQueue(Task* task) override {
    ListAdd(&task->run_list, &head_);
    ++nr_running_;
    ++stats_.wakeups;
  }
  void DelFromRunQueue(Task* task) override {
    --nr_running_;
    ListDel(&task->run_list);
    task->run_list.next = nullptr;
    task->run_list.prev = nullptr;
  }
  void MoveFirstRunQueue(Task* task) override { ListMove(&task->run_list, &head_); }
  void MoveLastRunQueue(Task* task) override { ListMoveTail(&task->run_list, &head_); }

  Task* Schedule(int this_cpu, Task* prev, CostMeter& meter) override {
    meter.ChargeEntry();
    meter.ChargeLock();
    const MmStruct* this_mm = prev != nullptr ? prev->mm : nullptr;
    bool rr_expired = false;
    if (prev != nullptr) {
      if (PolicyBase(prev->policy) == kSchedRr && prev->counter == 0) {
        prev->counter = prev->priority;
        MoveLastRunQueue(prev);
        rr_expired = true;
      }
      if (prev->state != TaskState::kRunning && prev->OnRunQueue()) {
        DelFromRunQueue(prev);
      }
    }
    while (true) {
      Task* next = nullptr;
      long c = kUnschedulableWeight;
      if (prev != nullptr && prev->state == TaskState::kRunning) {
        c = PrevGoodness(*prev, this_cpu, this_mm, config_.smp) - (rr_expired ? 1 : 0);
        next = prev;
      }
      for (ListHead* node = head_.next; node != &head_; node = node->next) {
        Task* p = ListEntry<Task, &Task::run_list>(node);
        if (p->has_cpu != 0) {
          continue;
        }
        meter.ChargeExamine();
        const long weight = Goodness(*p, this_cpu, this_mm, config_.smp);
        if (weight > c) {
          c = weight;
          next = p;
        }
      }
      if (c == 0) {
        meter.ChargeRecalc(all_tasks_->size());
        all_tasks_->ForEach([](Task* p) { p->counter = (p->counter >> 1) + p->priority; });
        continue;
      }
      meter.ChargeFinish();
      RecordPick(this_cpu, prev, next, meter);
      return next;
    }
  }

 private:
  ListHead head_;
};

// One scheduler plus the task population and per-CPU state a Machine would
// keep around it. Two worlds built from the same parameters receive the same
// operations; only their schedulers differ.
struct World {
  World(bool reference, int cpus, bool smp) : current(static_cast<size_t>(cpus), nullptr) {
    const SchedulerConfig config{cpus, smp};
    if (reference) {
      sched = std::make_unique<ReferenceLinuxScheduler>(CostModel::PentiumII(),
                                                        factory.task_list(), config);
    } else {
      sched = std::make_unique<LinuxScheduler>(CostModel::PentiumII(), factory.task_list(),
                                               config);
    }
    mms[0] = factory.NewMm();
    mms[1] = factory.NewMm();
  }

  // mm_choice 2 is a kernel thread (no mm).
  Task* NewTask(long counter, long priority, int mm_choice, int processor) {
    Task* t = factory.NewTask(counter, priority, mms[mm_choice % 2]);
    if (mm_choice == 2) {
      t->mm = nullptr;
    }
    t->processor = processor;
    tasks.push_back(t);
    return t;
  }

  // Machine::SetTaskPriority / SetTaskPolicy: a waiting task is re-filed, a
  // running one (has_cpu == 1) only changes fields.
  void Refile(Task* t) {
    if (t->OnRunQueue() && t->has_cpu == 0) {
      sched->DelFromRunQueue(t);
      sched->AddToRunQueue(t);
    }
  }
  void SetPriority(Task* t, long priority) {
    t->priority = priority;
    Refile(t);
  }
  void SetPolicy(Task* t, uint32_t policy, long rt_priority) {
    t->policy = (t->policy & kSchedYield) | PolicyBase(policy);
    t->rt_priority = PolicyIsRealtime(policy) ? rt_priority : 0;
    Refile(t);
  }
  void Wake(Task* t) {
    if (t->state == TaskState::kInterruptible) {
      t->state = TaskState::kRunning;
      if (!t->OnRunQueue()) {
        sched->AddToRunQueue(t);
      }
    }
  }

  TaskFactory factory;
  std::unique_ptr<Scheduler> sched;
  MmStruct* mms[2];
  std::vector<Task*> tasks;
  std::vector<Task*> current;  // Per CPU; nullptr = idle.
};

// What happens between a pick and its dispatch, decided once for both worlds.
struct Window {
  bool wake_prev = false;
  int set_priority = 0;  // 0 = none, else the new priority.
  int set_policy = -1;   // -1 = none, else kSchedOther or kSchedRr.
};

std::string Pid(const Task* t) { return t == nullptr ? "idle" : std::to_string(t->pid); }

// Compares one pick of each world: the task, the examine count, the
// recalculations and the cycles charged. Returns "" or the disagreement.
std::string ComparePicks(const Task* const picks[2], const CostMeter meters[2]) {
  if (Pid(picks[0]) != Pid(picks[1])) {
    return "picked " + Pid(picks[0]) + ", reference picked " + Pid(picks[1]);
  }
  if (meters[0].tasks_examined() != meters[1].tasks_examined() ||
      meters[0].recalc_entries() != meters[1].recalc_entries() ||
      meters[0].cycles() != meters[1].cycles()) {
    return StrFormat("examined/recalcs/cycles %llu/%llu/%llu, reference %llu/%llu/%llu",
                     static_cast<unsigned long long>(meters[0].tasks_examined()),
                     static_cast<unsigned long long>(meters[0].recalc_entries()),
                     static_cast<unsigned long long>(meters[0].cycles()),
                     static_cast<unsigned long long>(meters[1].tasks_examined()),
                     static_cast<unsigned long long>(meters[1].recalc_entries()),
                     static_cast<unsigned long long>(meters[1].cycles()));
  }
  return "";
}

// The Machine's schedule() protocol on `cpu`: pick, claim the pick, run the
// window, dispatch. With `repick`, a first pick is thrown away undispatched
// (a caller that picks twice). Returns "" or what the two worlds disagree on.
std::string ScheduleBoth(World& lin, World& ref, int cpu, const Window& window, bool repick) {
  World* worlds[2] = {&lin, &ref};
  if (repick) {
    const Task* picks[2];
    CostMeter meters[2] = {CostMeter(lin.sched->cost_model()),
                           CostMeter(ref.sched->cost_model())};
    for (int w = 0; w < 2; ++w) {
      picks[w] = worlds[w]->sched->Schedule(cpu, worlds[w]->current[static_cast<size_t>(cpu)],
                                            meters[w]);
    }
    const std::string mismatch = ComparePicks(picks, meters);
    if (!mismatch.empty()) {
      return "undispatched " + mismatch;
    }
  }
  const Task* picks[2];
  CostMeter meters[2] = {CostMeter(lin.sched->cost_model()), CostMeter(ref.sched->cost_model())};
  for (int w = 0; w < 2; ++w) {
    World& world = *worlds[w];
    Task* prev = world.current[static_cast<size_t>(cpu)];
    Task* next = world.sched->Schedule(cpu, prev, meters[w]);
    picks[w] = next;
    if (next != nullptr) {
      next->has_cpu = 1;
    }
    if (prev != nullptr && prev != next && prev->state != TaskState::kZombie) {
      if (window.wake_prev) {
        world.Wake(prev);
      }
      if (window.set_priority != 0) {
        world.SetPriority(prev, window.set_priority);
      }
      if (window.set_policy >= 0) {
        world.SetPolicy(prev, static_cast<uint32_t>(window.set_policy), 5);
      }
    }
    if (prev != next) {
      if (prev != nullptr) {
        prev->has_cpu = 0;
      }
      if (next != nullptr) {
        next->processor = cpu;
      }
      world.current[static_cast<size_t>(cpu)] = next;
    }
  }
  return ComparePicks(picks, meters);
}

// The first task whose scheduling fields differ between the worlds, or "".
std::string FieldMismatch(const World& lin, const World& ref) {
  for (size_t i = 0; i < lin.tasks.size(); ++i) {
    const Task& a = *lin.tasks[i];
    const Task& b = *ref.tasks[i];
    if (a.counter != b.counter || a.priority != b.priority || a.policy != b.policy ||
        a.rt_priority != b.rt_priority || a.state != b.state || a.has_cpu != b.has_cpu ||
        a.processor != b.processor || a.OnRunQueue() != b.OnRunQueue()) {
      return StrFormat("task %d fields counter/priority/policy/state/queued %ld/%ld/%u/%d/%d, "
                       "reference %ld/%ld/%u/%d/%d",
                       a.pid, a.counter, a.priority, a.policy, static_cast<int>(a.state),
                       a.OnRunQueue() ? 1 : 0, b.counter, b.priority, b.policy,
                       static_cast<int>(b.state), b.OnRunQueue() ? 1 : 0);
    }
  }
  return "";
}

enum Op {
  kSchedule, kTick, kBlock, kWake, kYield, kExit, kFork, kPriority, kPolicy, kMoveFirst,
  kMoveLast, kRefile, kNumOps
};
const char* const kOpNames[] = {"schedule", "tick",     "block",     "wake",
                                "yield",    "exit",     "fork",      "priority",
                                "policy",   "movefirst", "movelast", "refile"};

// Runs `steps` seeded operations on LinuxScheduler and the reference side by
// side, on 1-8 CPUs drawn from the seed or on `wide_cpus` CPUs when it is
// nonzero (the draw is made either way, so every later draw is the same).
// Returns "" when they agree after every operation, else a one-line repro
// naming the call, step, operation and mismatch.
std::string RunMirrorDifferential(uint64_t seed, int steps, int wide_cpus = 0) {
  Rng rng(seed);
  const int drawn_cpus = static_cast<int>(1 + rng.NextBelow(8));
  const int cpus = wide_cpus != 0 ? wide_cpus : drawn_cpus;
  const bool smp = rng.NextBool(0.7);
  World lin(false, cpus, smp);
  World ref(true, cpus, smp);
  auto repro = [&](int step, const char* op, const std::string& what) {
    const std::string call =
        wide_cpus != 0 ? StrFormat("seed=%llu, steps=%d, wide_cpus=%d",
                                   static_cast<unsigned long long>(seed), steps, wide_cpus)
                       : StrFormat("seed=%llu", static_cast<unsigned long long>(seed));
    return StrFormat("repro: RunMirrorDifferential(%s) cpus=%d smp=%d step %d op %s: %s",
                     call.c_str(), cpus, smp ? 1 : 0, step, op, what.c_str());
  };
  auto add_task = [&](int processor) {
    // Small counters exhaust quickly, so recalculations are frequent.
    const long priority = static_cast<long>(1 + rng.NextBelow(40));
    const long counter = static_cast<long>(rng.NextBelow(4));
    const int mm_choice = static_cast<int>(rng.NextBelow(3));
    const bool rr = rng.NextBool(0.1);
    const bool queued = rng.NextBool(0.8);
    for (World* w : {&lin, &ref}) {
      Task* t = w->NewTask(counter, priority, mm_choice, processor);
      if (rr) {
        t->policy = kSchedRr;
        t->rt_priority = 3;
      }
      if (queued) {
        w->sched->AddToRunQueue(t);
      } else {
        t->state = TaskState::kInterruptible;
      }
    }
  };
  const int initial = static_cast<int>(2 + rng.NextBelow(20));
  for (int i = 0; i < initial; ++i) {
    add_task(static_cast<int>(rng.NextBelow(static_cast<uint64_t>(cpus))));
  }

  ViolationTrap trap;
  for (int step = 0; step < steps; ++step) {
    const Op op = static_cast<Op>(rng.NextBelow(kNumOps));
    const int cpu = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(cpus)));
    const size_t n = lin.tasks.size();
    const size_t victim = static_cast<size_t>(rng.NextBelow(n));
    Task* lt = lin.tasks[victim];
    Task* rt = ref.tasks[victim];
    Task* lcur = lin.current[static_cast<size_t>(cpu)];
    Task* rcur = ref.current[static_cast<size_t>(cpu)];
    Window window;
    window.wake_prev = rng.NextBool(0.5);
    if (rng.NextBool(0.25)) {
      window.set_priority = static_cast<int>(1 + rng.NextBelow(40));
    }
    if (rng.NextBool(0.15)) {
      window.set_policy = rng.NextBool(0.5) ? static_cast<int>(kSchedOther)
                                            : static_cast<int>(kSchedRr);
    }
    const bool repick = rng.NextBool(0.1);
    bool schedule = false;
    std::string mismatch;
    try {
      switch (op) {
        case kSchedule:
          schedule = true;
          break;
        case kTick:
          // Ticks burn the running task's quantum; expiry preempts.
          if (lcur != nullptr && PolicyBase(lcur->policy) != kSchedFifo) {
            for (Task* t : {lcur, rcur}) {
              if (t->counter > 0) {
                --t->counter;
              }
            }
            schedule = lcur->counter == 0;
          }
          break;
        case kBlock:
          if (lcur != nullptr) {
            lcur->state = TaskState::kInterruptible;
            rcur->state = TaskState::kInterruptible;
            schedule = true;
          }
          break;
        case kWake:
          lin.Wake(lt);
          ref.Wake(rt);
          break;
        case kYield:
          if (lcur != nullptr) {
            for (World* w : {&lin, &ref}) {
              Task* t = w->current[static_cast<size_t>(cpu)];
              if (PolicyBase(t->policy) == kSchedOther) {
                t->policy |= kSchedYield;
              }
              if (t->OnRunQueue()) {
                w->sched->MoveLastRunQueue(t);
              }
            }
            schedule = true;
          }
          break;
        case kExit:
          if (lcur != nullptr && n > 2) {
            lcur->state = TaskState::kZombie;
            rcur->state = TaskState::kZombie;
            schedule = true;
          }
          break;
        case kFork:
          if (lcur != nullptr && n < 48) {
            const long child_counter = (lcur->counter + 1) >> 1;
            const long priority = lcur->priority;
            const int processor = lcur->processor;
            const int mm_choice = lcur->mm == lin.mms[0] ? 0 : lcur->mm == lin.mms[1] ? 1 : 2;
            for (World* w : {&lin, &ref}) {
              Task* parent = w->current[static_cast<size_t>(cpu)];
              parent->counter >>= 1;
              w->sched->AddToRunQueue(w->NewTask(child_counter, priority, mm_choice, processor));
            }
          }
          break;
        case kPriority: {
          const long priority = static_cast<long>(1 + rng.NextBelow(40));
          lin.SetPriority(lt, priority);
          ref.SetPriority(rt, priority);
          break;
        }
        case kPolicy: {
          const uint32_t policy = rng.NextBool(0.5) ? kSchedOther : kSchedRr;
          lin.SetPolicy(lt, policy, 7);
          ref.SetPolicy(rt, policy, 7);
          break;
        }
        case kMoveFirst:
        case kMoveLast:
          if (lt->OnRunQueue()) {
            if (op == kMoveFirst) {
              lin.sched->MoveFirstRunQueue(lt);
              ref.sched->MoveFirstRunQueue(rt);
            } else {
              lin.sched->MoveLastRunQueue(lt);
              ref.sched->MoveLastRunQueue(rt);
            }
          }
          break;
        case kRefile:
          lin.Refile(lt);
          ref.Refile(rt);
          break;
        case kNumOps:
          break;
      }
      if (schedule) {
        mismatch = ScheduleBoth(lin, ref, cpu, window, repick);
      }
      lin.sched->CheckInvariants();
    } catch (const InvariantViolation& v) {
      mismatch = StrFormat("invariant violation: %s at %s:%d %s", v.info.expr, v.info.file,
                           v.info.line, v.info.msg != nullptr ? v.info.msg : "");
    }
    if (mismatch.empty() && lin.sched->nr_running() != ref.sched->nr_running()) {
      mismatch = "nr_running differs from reference";
    }
    if (mismatch.empty()) {
      mismatch = FieldMismatch(lin, ref);
    }
    if (!mismatch.empty()) {
      return repro(step, kOpNames[op], mismatch);
    }
  }
  return "";
}

TEST(LinuxMirrorTest, RandomOperationsMatchTheKernelLoop) {
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    const std::string failure = RunMirrorDifferential(seed, 600);
    ASSERT_EQ(failure, "");
  }
}

// 16 and 64 CPUs make 17 and 65 scan lanes, most of them empty or holding a
// task or two, so picks skip lanes, read lanes whose bound went stale with a
// removal or a hold, and move released tasks between lanes far more often.
TEST(LinuxMirrorTest, RandomOperationsOnWideMachinesMatchTheKernelLoop) {
  for (int cpus : {16, 64}) {
    for (uint64_t seed = 1; seed <= 100; ++seed) {
      const std::string failure = RunMirrorDifferential(seed, 600, cpus);
      ASSERT_EQ(failure, "");
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-Machine runs through MachineConfig::scheduler_factory.
// ---------------------------------------------------------------------------

std::unique_ptr<Scheduler> MakeLinux(const CostModel& model, TaskList* tasks,
                                     const SchedulerConfig& config) {
  return std::make_unique<LinuxScheduler>(model, tasks, config);
}

std::unique_ptr<Scheduler> MakeReference(const CostModel& model, TaskList* tasks,
                                         const SchedulerConfig& config) {
  return std::make_unique<ReferenceLinuxScheduler>(model, tasks, config);
}

// Runs `Workload` to completion on a Machine whose scheduler comes from
// `factory`, with invariant checks on and `faults` armed. A pick observer
// changes the outgoing prev's priority or policy on every third switch, in
// the window between its pick and its dispatch. Returns both digests.
template <typename Workload, typename Config>
std::string MachineDigest(MachineConfig mc, const Config& config, const FaultPlan& faults,
                          Cycles deadline, bool reference) {
  mc.check_invariants = true;
  mc.scheduler_factory = reference ? MakeReference : MakeLinux;
  Machine machine(mc);
  Workload workload(machine, config);
  workload.Setup();
  FaultInjector injector(machine, faults);
  injector.Arm();
  uint64_t switches = 0;
  machine.SetPickObserver([&machine, &switches](int, const Task* prev, const Task* next) {
    if (prev == nullptr || prev == next || prev->state == TaskState::kZombie ||
        ++switches % 3 != 0) {
      return;
    }
    Task* outgoing = const_cast<Task*>(prev);
    if (PolicyBase(outgoing->policy) == kSchedRr) {
      machine.SetTaskPolicy(outgoing, kSchedOther, 0);
    } else if (switches % 4 == 0) {
      machine.SetTaskPolicy(outgoing, kSchedRr, static_cast<long>(1 + switches % 10));
    } else {
      machine.SetTaskPriority(outgoing, static_cast<long>(1 + switches % kMaxPriority));
    }
  });
  machine.Start();
  machine.RunUntil([&workload] { return workload.Done(); }, deadline);
  RunStats stats = CollectStats(machine);
  stats.faults = injector.stats();
  EXPECT_TRUE(workload.Done()) << (reference ? "reference" : "linux");
  return RunStatsDigest(stats) + " " + EngineDigest(stats);
}

template <typename Workload, typename Config>
void ExpectSameDigest(const MachineConfig& mc, const Config& config, const FaultPlan& faults,
                      Cycles deadline) {
  EXPECT_EQ(MachineDigest<Workload>(mc, config, faults, deadline, false),
            MachineDigest<Workload>(mc, config, faults, deadline, true));
}

TEST(LinuxMirrorTest, VolanoMachineMatchesTheKernelLoop) {
  VolanoConfig volano;
  volano.rooms = 3;
  volano.users_per_room = 6;
  volano.messages_per_user = 12;
  ExpectSameDigest<VolanoWorkload>(MakeMachineConfig(KernelConfig::kSmp4, SchedulerKind::kLinux, 3),
                                   volano, FaultPlan{}, SecToCycles(3600));
}

TEST(LinuxMirrorTest, FaultInjectedChaosMixMatchesTheKernelLoop) {
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    SCOPED_TRACE("repro: chaos mix seed=" + std::to_string(seed));
    ChaosMixConfig mix;
    mix.seed = seed;
    mix.spinners = 24;
    mix.yielders = 12;
    mix.interactive = 12;
    mix.waiters = 8;
    mix.forkers = 4;
    mix.rt_tasks = 2;
    ExpectSameDigest<ChaosMixWorkload>(
        MakeMachineConfig(seed % 2 == 0 ? KernelConfig::kSmp4 : KernelConfig::kSmp2,
                          SchedulerKind::kLinux, seed),
        mix, FullChaosPlan(seed), SecToCycles(120));
  }
}

TEST(LinuxMirrorTest, KcompileMachineMatchesTheKernelLoop) {
  KcompileConfig kcompile;
  kcompile.total_compile_jobs = 200;
  kcompile.serial_parse_cycles = MsToCycles(200);
  kcompile.serial_link_cycles = MsToCycles(300);
  ExpectSameDigest<KcompileWorkload>(MakeMachineConfig(KernelConfig::kSmp4, SchedulerKind::kLinux, 5),
                                     kcompile, FaultPlan{}, SecToCycles(7200));
}

}  // namespace
}  // namespace elsc
