// The scheduler interface.
//
// Both the stock Linux 2.3.99-pre4 scheduler and the ELSC scheduler (plus the
// heap-based alternative from the paper's future-work section) implement this
// interface. It mirrors the kernel's contract (paper §5.1): four run-queue
// manipulation functions plus schedule() itself, which is the only function
// allowed to manipulate the run queue directly in any other way.
//
// Calling conventions shared with the Machine runtime:
//  * The previous task still has has_cpu == 1 while Schedule() runs (it is
//    cleared by the Machine during the context switch), so SMP search loops
//    naturally skip tasks executing elsewhere — including prev itself. The
//    Machine sets has_cpu on the returned task before it releases the lock,
//    and no other pick runs before the dispatch, so a scheduler may instead
//    derive the running set from its own calls (LinuxScheduler's held
//    model): the task Schedule(cpu, ...) returns runs on cpu until cpu's
//    next Schedule(), whose prev it is; a task added with has_cpu == 1 is
//    either running elsewhere or the prev of the pick in flight, woken
//    before its dispatch.
//  * Schedule() must return the next task to run, or nullptr to schedule the
//    CPU's idle task. It may return prev.
//  * Schedule() charges its simulated cost to the CostMeter; the Machine
//    turns that into simulated time and run-queue-lock occupancy — the one
//    global runqueue_lock for global-lock schedulers, or this CPU's own lock
//    (plus any remote locks reported via ChargeRemoteLock) for per-CPU-queue
//    schedulers.

#ifndef SRC_SCHED_SCHEDULER_H_
#define SRC_SCHED_SCHEDULER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/kernel/task.h"
#include "src/kernel/task_list.h"
#include "src/sched/cost_model.h"
#include "src/sched/sched_stats.h"

namespace elsc {

struct SchedulerConfig {
  int num_cpus = 1;
  // SMP semantics: has_cpu checks, affinity bonus, lock costs. A "UP" kernel
  // build (paper's UP configuration) runs with smp == false; the "1P"
  // configuration is smp == true with num_cpus == 1.
  bool smp = false;
};

class Scheduler {
 public:
  Scheduler(const CostModel& cost_model, TaskList* all_tasks, const SchedulerConfig& config)
      : cost_model_(cost_model), all_tasks_(all_tasks), config_(config),
        cpu_dispatch_seq_(static_cast<size_t>(config.num_cpus), 0) {}

  virtual ~Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  virtual const char* name() const = 0;

  // Whether this scheduler's schedule() path contends on the kernel's single
  // global runqueue_lock (true for everything the paper measures: linux,
  // elsc, heap). Per-CPU-queue designs (multiqueue, o1) return false and use
  // the Machine's *per-CPU* lock model instead: each pick holds only its own
  // CPU's run-queue lock for the pick's duration, and a pick that migrates
  // tasks reports each source CPU through CostMeter::ChargeRemoteLock — the
  // Machine acquires those double-locks in ascending CPU index (the
  // deadlock-avoidance order), charges any residual hold time of a remote
  // holder to this pick, and accounts per-CPU hold/wait cycles in SchedStats
  // (percpu_lock_*) and Machine::cpu_lock().
  virtual bool uses_global_lock() const { return true; }

  // ---- Run-queue manipulation (the four kernel functions, paper §5.1) ----
  virtual void AddToRunQueue(Task* task) = 0;
  virtual void DelFromRunQueue(Task* task) = 0;
  virtual void MoveFirstRunQueue(Task* task) = 0;
  virtual void MoveLastRunQueue(Task* task) = 0;

  // ---- schedule() ----
  // Picks the task to run next on `this_cpu`, replacing `prev` (the task
  // whose context the call runs in; may be the CPU's idle task, passed as
  // nullptr). Returns nullptr for idle.
  virtual Task* Schedule(int this_cpu, Task* prev, CostMeter& meter) = 0;

  // goodness(candidate) - goodness(running) as *this* scheduler would see it;
  // used by the Machine's reschedule_idle() to decide preemption on wakeup.
  virtual long PreemptionDelta(const Task& candidate, const Task& running, int cpu) const;

  // ---- Introspection ----
  size_t nr_running() const { return nr_running_; }
  const SchedStats& stats() const { return stats_; }
  SchedStats& mutable_stats() { return stats_; }
  const CostModel& cost_model() const { return cost_model_; }
  const SchedulerConfig& config() const { return config_; }
  bool smp() const { return config_.smp; }
  int num_cpus() const { return config_.num_cpus; }

  // Validates internal invariants (tests call this after every operation in
  // property sweeps). Aborts on violation.
  virtual void CheckInvariants() const {}

  // Human-readable rendering of the run-queue structure (the paper's
  // Figure 1 shows these for the stock and ELSC schedulers). For debugging
  // and the procfs-style reports.
  virtual std::string DebugString() const { return name(); }

  // How many dispatches CPU `cpu` has performed (grows by one per pick that
  // lands a task there). The gap between this and a task's last_run_stamp
  // measures cache-footprint staleness.
  uint64_t CpuDispatchSeq(int cpu) const {
    return cpu_dispatch_seq_[static_cast<size_t>(cpu)];
  }

 protected:
  // Common post-pick accounting shared by implementations.
  void RecordPick(int this_cpu, const Task* prev, Task* next, const CostMeter& meter);

  // for_each_task(p): p->counter = (p->counter >> 1) + p->priority. Touches
  // every task in the system, runnable or not (paper §3.3.2). The caller
  // charges it (CostMeter::ChargeRecalc) and then refreshes whatever its
  // own structure derived from the old counters.
  void RecalculateCounters();

  size_t nr_running_ = 0;
  CostModel cost_model_;
  TaskList* all_tasks_;
  SchedulerConfig config_;
  SchedStats stats_;
  std::vector<uint64_t> cpu_dispatch_seq_;
};

}  // namespace elsc

#endif  // SRC_SCHED_SCHEDULER_H_
