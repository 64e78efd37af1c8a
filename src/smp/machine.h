// The simulated machine: CPUs + scheduler + timer tick + dispatch loop.
//
// This is the reproduction's stand-in for the Linux 2.3.99-pre4 kernel
// runtime. It owns the discrete-event engine, the global task list, the
// scheduler under test, and N simulated CPUs, and implements:
//
//  * the 10 ms timer tick (counter decrement, quantum expiry -> need_resched),
//  * schedule() invocation with a run-queue-lock serialization model. Global-
//    lock schedulers (uses_global_lock() == true) serialize on one
//    runqueue_lock with FIFO waiters — the 2.3.x kernel had exactly one.
//    Per-CPU-queue schedulers (uses_global_lock() == false) take only their
//    own CPU's run-queue lock, so picks on different CPUs overlap freely;
//    a pick that migrates tasks additionally acquires the source CPUs' locks
//    (reported via CostMeter::ChargeRemoteLock, applied by the Machine in
//    ascending CPU index — the double-lock order) and a CPU whose lock is
//    held by a remote pick spins until the holder releases,
//  * context-switch and cache-migration cost accounting,
//  * wake_up_process() / reschedule_idle() preemption,
//  * task lifecycle (create, block, yield, exit) driven by TaskBehaviors.

#ifndef SRC_SMP_MACHINE_H_
#define SRC_SMP_MACHINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/arena.h"
#include "src/base/bitmap.h"
#include "src/base/rng.h"
#include "src/base/time_units.h"
#include "src/base/token_codec.h"
#include "src/kernel/behavior.h"
#include "src/kernel/pid_allocator.h"
#include "src/kernel/task.h"
#include "src/kernel/task_list.h"
#include "src/kernel/wait_queue.h"
#include "src/sched/cost_model.h"
#include "src/sched/elsc_scheduler.h"
#include "src/sched/factory.h"
#include "src/sim/engine.h"
#include "src/smp/cpu.h"
#include "src/smp/trace.h"

namespace elsc {

struct MachineConfig {
  int num_cpus = 1;
  // SMP kernel semantics (affinity bonus, has_cpu checks, lock contention).
  // The paper's "UP" configuration is num_cpus == 1, smp == false; its "1P"
  // configuration is num_cpus == 1, smp == true.
  bool smp = false;
  SchedulerKind scheduler = SchedulerKind::kElsc;
  CostModel cost_model = CostModel::PentiumII();
  ElscOptions elsc;
  uint64_t seed = 1;
  // Run scheduler invariant checks after every operation (slow; tests only).
  bool check_invariants = false;
  // Extension seam: when set, the Machine builds its scheduler through this
  // factory instead of `scheduler`, so embedders can plug in custom policies
  // (see examples/custom_scheduler.cpp).
  std::function<std::unique_ptr<Scheduler>(const CostModel&, TaskList*, const SchedulerConfig&)>
      scheduler_factory;
};

struct MachineStats {
  uint64_t ticks = 0;
  uint64_t context_switches = 0;
  uint64_t migrations = 0;       // Dispatches onto a CPU != last processor.
  uint64_t wakeups = 0;
  // Machine::stats() reads these two from the task arena and the live task
  // list, which hold them already.
  uint64_t tasks_created = 0;
  uint64_t tasks_exited = 0;
  // High-water mark of concurrently live (created, not yet exited) tasks.
  uint64_t peak_live_tasks = 0;
  uint64_t quantum_expiries = 0;
  uint64_t preempt_requests = 0;  // reschedule_idle() decided to preempt.
  // Fault injection (all zero when no FaultInjector is armed).
  uint64_t ticks_dropped = 0;      // Timer ticks lost to injected tick loss.
  uint64_t cpu_stalls = 0;         // StallCpu() stall windows entered.
  Cycles lock_stall_cycles = 0;    // Injected lock-holder preemption time.
};

// Every MachineStats counter, in codec order. peak_live_tasks comes last
// here, not where MachineStats declares it: it joined the codec after the
// others, and the digest keeps the codec order.
inline constexpr Counter<MachineStats> kMachineCounters[] = {
    ELSC_COUNTER(MachineStats, ticks), ELSC_COUNTER(MachineStats, context_switches),
    ELSC_COUNTER(MachineStats, migrations), ELSC_COUNTER(MachineStats, wakeups),
    ELSC_COUNTER(MachineStats, tasks_created), ELSC_COUNTER(MachineStats, tasks_exited),
    ELSC_COUNTER(MachineStats, quantum_expiries), ELSC_COUNTER(MachineStats, preempt_requests),
    ELSC_COUNTER(MachineStats, ticks_dropped), ELSC_COUNTER(MachineStats, cpu_stalls),
    ELSC_COUNTER(MachineStats, lock_stall_cycles), ELSC_COUNTER(MachineStats, peak_live_tasks),
};

// Per-CPU run-queue lock accounting (per-CPU-queue schedulers only; every
// field stays zero under a global-lock scheduler). The lock is modeled as a
// hold window in simulated time: a pick holds its own CPU's lock for the
// pick's duration, and a migrating pick extends the hold window of every
// remote lock it took to the end of the pick.
struct CpuLockStats {
  Cycles held_until = 0;        // Lock is held iff held_until > Now().
  Cycles hold_cycles = 0;       // Total cycles this lock was held.
  Cycles wait_cycles = 0;       // Cycles pickers spun waiting for this lock.
  uint64_t acquisitions = 0;    // Own-CPU pick acquisitions.
  uint64_t remote_acquisitions = 0;  // Acquisitions by migrating peers.
  uint64_t contended = 0;       // Acquisitions that found the lock held.
};

struct TaskParams {
  std::string name;
  MmStruct* mm = nullptr;          // nullptr: give the task a fresh mm.
  long priority = kDefaultPriority;
  uint32_t policy = kSchedOther;
  long rt_priority = 0;
  long initial_counter = -1;       // -1: start with a full quantum (priority).
  int processor = -1;              // -1: spread round-robin across CPUs.
  TaskBehavior* behavior = nullptr;
};

class Machine : public Waker {
 public:
  explicit Machine(const MachineConfig& config);
  ~Machine() override;

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // ---- Setup ----
  MmStruct* CreateMm();
  // Creates a runnable task and wakes it into the scheduler.
  Task* CreateTask(const TaskParams& params);
  // Starts the timer tick and kicks every CPU's first schedule.
  void Start();

  // ---- Running ----
  void RunFor(Cycles duration);
  // Runs until `predicate` holds (checked after every event) or `deadline`
  // simulated cycles elapse. Returns true if the predicate held.
  bool RunUntil(const std::function<bool()>& predicate, Cycles deadline);
  // Runs until every created task has exited (idle ticks keep firing, so
  // a deadline is required). Returns true on success.
  bool RunUntilAllExited(Cycles deadline);

  // ---- Kernel services used by behaviors/workloads ----
  void WakeUpProcess(Task* task) override;  // try_to_wake_up()
  // Changes a SCHED_OTHER task's priority, re-filing it if needed.
  void SetTaskPriority(Task* task, long priority);
  // sched_setscheduler(): changes policy (+rt_priority), re-filing if needed.
  void SetTaskPolicy(Task* task, uint32_t policy, long rt_priority);
  // fork(): creates a runnable child on the parent's CPU, splitting the
  // parent's remaining quantum with it (Linux 2.3.99 semantics: the child
  // gets half, the parent keeps half — forking buys no extra CPU share).
  Task* ForkTask(Task* parent, const TaskParams& params);

  // ---- Introspection ----
  Cycles Now() const { return engine_.Now(); }
  Engine& engine() { return engine_; }
  const Engine& engine() const { return engine_; }
  Scheduler& scheduler() { return *scheduler_; }
  const Scheduler& scheduler() const { return *scheduler_; }
  const MachineConfig& config() const { return config_; }
  TaskList& tasks() { return task_list_; }
  Rng& rng() { return rng_; }
  MachineStats stats() const {
    MachineStats stats = stats_;
    stats.tasks_created = all_tasks().size();
    stats.tasks_exited = all_tasks().size() - live_tasks();
    return stats;
  }
  Cpu& cpu(int index) { return *cpus_[static_cast<size_t>(index)]; }
  const Cpu& cpu(int index) const { return *cpus_[static_cast<size_t>(index)]; }
  int num_cpus() const { return config_.num_cpus; }
  // Created and not yet exited: the length of the for_each_task list.
  size_t live_tasks() const { return task_list_.size(); }
  // Per-CPU run-queue lock accounting (all-zero for global-lock schedulers).
  const CpuLockStats& cpu_lock(int index) const {
    return cpu_locks_[static_cast<size_t>(index)];
  }

  // Kernel-style load averages (exponentially-damped nr_running, sampled
  // every 5 simulated seconds). which: 0 = 1 min, 1 = 5 min, 2 = 15 min.
  double LoadAvg(int which) const;

  // Event trace recorder (disabled unless TraceRecorder::Enable is called).
  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }

  // Every task ever created, in creation order, zombies included: the
  // machine's task arena, which never releases a task. Indexing and
  // iteration yield Task*.
  const SlabArena<Task>& all_tasks() const { return task_arena_; }
  ArenaStats task_arena_stats() const { return task_arena_.stats(); }
  // Bytes resident in the task arena's slabs (a high-water mark: slabs are
  // never returned). Feeds the memory block of RunStats / the proc report.
  size_t task_arena_bytes() const { return task_arena_.footprint_bytes(); }

  // ---- Fault-injection hooks (driven by src/faults/) ----
  // Stalls a CPU for `duration` cycles: its live segment is parked (partial
  // work credited), it takes no timer ticks, and preemption requests are
  // deferred until it rejoins. Models a hotplug pause / SMI-style stall.
  // No-op if the CPU is already stalled or duration == 0.
  void StallCpu(int cpu_id, Cycles duration);
  // Drops the next `n` timer ticks (the timer keeps re-arming; the dropped
  // ticks decrement no counters and expire no quanta).
  void InjectTickDrops(uint64_t n) { pending_tick_drops_ += n; }
  // Delays the timer's next re-arm by `delta` extra cycles (tick jitter).
  void InjectTickJitter(Cycles delta) { pending_tick_jitter_ += delta; }
  // The next schedule() pick on a global-lock scheduler holds the run-queue
  // lock `extra` cycles longer (lock-holder preemption spike). Ignored by
  // per-CPU-queue schedulers, which never take the global lock (their
  // per-CPU hold windows are driven by pick cost alone).
  void AddLockHolderStall(Cycles extra) { pending_lock_stall_ += extra; }
  // Observer invoked synchronously after every scheduler pick (before the
  // pick is claimed), with the run queue in its post-pick state. Used by the
  // SchedulerAuditor to audit pick ordering.
  using PickObserver = std::function<void(int cpu_id, const Task* prev, const Task* next)>;
  void SetPickObserver(PickObserver observer) { pick_observer_ = std::move(observer); }

 private:
  // ---- schedule() path ----
  void RequestSchedule(int cpu_id);
  void TryGrantLock();
  // Per-CPU-queue path: runs the pick if cpu_id's own lock is free, else
  // re-arms itself for the moment the current holder releases (spin model).
  void AcquireCpuLock(int cpu_id);
  void DoSchedule(int cpu_id);
  void FinishSchedule(int cpu_id, Task* next, Cycles pick_cost);
  void Dispatch(int cpu_id, Task* next);

  // ---- segment execution ----
  void InstallSegment(int cpu_id, Cycles overhead);
  void OnSegmentEnd(int cpu_id, uint64_t generation);
  // Cancels the live segment (if any), crediting partial progress.
  void StopSegment(int cpu_id);
  // Fetches the next segment from the behavior, enforcing sanity.
  Segment FetchSegment(Task* task);

  // ---- preemption ----
  void PreemptCpu(int cpu_id);
  void RescheduleIdle(Task* woken);

  // ---- timer ----
  void OnTimerTick();
  void RearmTimer();

  // ---- fault injection ----
  void ResumeCpu(int cpu_id);

  void ExitTask(int cpu_id, Task* task);
  void CheckInvariantsIfEnabled();

  // ---- idle-CPU mask ----
  // Re-derives cpu_id's bit: set iff the CPU is idle and available (no
  // current task, no schedule() in flight, not stalled). Called after every
  // mutation of those three fields so RescheduleIdle() can find an idle CPU
  // with one find-first-set instead of scanning every CPU per wakeup.
  void UpdateIdleMask(int cpu_id);

  MachineConfig config_;
  Engine engine_;
  Rng rng_;
  PidAllocator pids_;
  TaskList task_list_;
  std::vector<std::unique_ptr<MmStruct>> mms_;
  // Every task, in creation order, at a stable address (all_tasks()).
  SlabArena<Task> task_arena_;
  std::unique_ptr<Scheduler> scheduler_;
  std::vector<std::unique_ptr<Cpu>> cpus_;
  MachineStats stats_;

  // Global run-queue lock model: one holder at a time, FIFO waiters.
  // Engaged only when scheduler_->uses_global_lock(). A CPU waits at most
  // once (RequestSchedule enqueues it only while !schedule_pending), so the
  // waiters fit a ring of num_cpus entries: the oldest is
  // lock_waiters_[lock_waiters_head_], lock_waiters_size_ follow it.
  bool lock_held_ = false;
  std::vector<int> lock_waiters_;
  size_t lock_waiters_head_ = 0;
  size_t lock_waiters_size_ = 0;
  // Per-CPU run-queue lock model (the complementary path): one entry per
  // CPU; engaged only when !scheduler_->uses_global_lock().
  std::vector<CpuLockStats> cpu_locks_;

  // Pending injected faults (consumed by the timer / schedule paths).
  uint64_t pending_tick_drops_ = 0;
  Cycles pending_tick_jitter_ = 0;
  Cycles pending_lock_stall_ = 0;
  PickObserver pick_observer_;

  // Bit i set iff CPU i is idle and available (see UpdateIdleMask).
  OccupancyBitmap idle_cpus_;

  TraceRecorder trace_;
  bool started_ = false;
  uint64_t next_mm_id_ = 1;
  double loadavg_[3] = {0.0, 0.0, 0.0};
};

}  // namespace elsc

#endif  // SRC_SMP_MACHINE_H_
