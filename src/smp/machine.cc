#include "src/smp/machine.h"

#include <algorithm>

#include "src/base/assert.h"

namespace elsc {

Machine::Machine(const MachineConfig& config)
    : config_(config), rng_(config.seed) {
  ELSC_CHECK(config_.num_cpus >= 1);
  ELSC_CHECK_MSG(config_.smp || config_.num_cpus == 1, "UP build requires exactly one CPU");
  SchedulerConfig sched_config{config_.num_cpus, config_.smp};
  if (config_.scheduler_factory) {
    scheduler_ = config_.scheduler_factory(config_.cost_model, &task_list_, sched_config);
    ELSC_CHECK_MSG(scheduler_ != nullptr, "scheduler_factory returned null");
  } else {
    scheduler_ = MakeScheduler(config_.scheduler, config_.cost_model, &task_list_, sched_config,
                               config_.elsc);
  }
  cpus_.reserve(static_cast<size_t>(config_.num_cpus));
  cpu_locks_.resize(static_cast<size_t>(config_.num_cpus));
  lock_waiters_.resize(static_cast<size_t>(config_.num_cpus));
  idle_cpus_.Reset(config_.num_cpus);
  for (int i = 0; i < config_.num_cpus; ++i) {
    auto cpu = std::make_unique<Cpu>();
    cpu->id = i;
    cpus_.push_back(std::move(cpu));
    idle_cpus_.Set(i);  // Fresh CPUs are idle and available.
  }
}

Machine::~Machine() = default;

MmStruct* Machine::CreateMm() {
  mms_.push_back(std::make_unique<MmStruct>(MmStruct{next_mm_id_++}));
  return mms_.back().get();
}

Task* Machine::CreateTask(const TaskParams& params) {
  ELSC_CHECK(params.priority >= kMinPriority && params.priority <= kMaxPriority);
  ELSC_CHECK(params.rt_priority >= 0 && params.rt_priority <= kMaxRtPriority);
  Task* task = task_arena_.Allocate();
  task->registry_slot = static_cast<int>(tasks_.size());
  tasks_.push_back(task);

  task->pid = pids_.Next();
  task->name = params.name.empty() ? "task-" + std::to_string(task->pid) : params.name;
  task->mm = params.mm != nullptr ? params.mm : CreateMm();
  task->priority = params.priority;
  task->policy = params.policy;
  task->rt_priority = params.rt_priority;
  task->counter = params.initial_counter >= 0 ? params.initial_counter : params.priority;
  task->behavior = params.behavior;
  task->state = TaskState::kRunning;
  // Spread fresh tasks across CPUs so the initial affinity is balanced (the
  // kernel sets this to the forking CPU; workload setup achieves the same
  // spread by creating tasks from many CPUs). ForkTask passes the parent's
  // CPU explicitly.
  task->processor =
      params.processor >= 0 && params.processor < num_cpus()
          ? params.processor
          : static_cast<int>(stats_.tasks_created % static_cast<uint64_t>(num_cpus()));
  task->became_runnable_at = Now();

  task_list_.Add(task);
  ++live_tasks_;
  ++stats_.tasks_created;
  if (live_tasks_ > stats_.peak_live_tasks) {
    stats_.peak_live_tasks = live_tasks_;
  }

  scheduler_->AddToRunQueue(task);
  CheckInvariantsIfEnabled();
  RescheduleIdle(task);
  return task;
}

void Machine::Start() {
  ELSC_CHECK_MSG(!started_, "Machine::Start() called twice");
  started_ = true;
  engine_.ScheduleAfter(kTickCycles, [this] { OnTimerTick(); });
  for (int i = 0; i < num_cpus(); ++i) {
    Cpu& c = *cpus_[static_cast<size_t>(i)];
    if (c.current == nullptr && !c.schedule_pending) {
      RequestSchedule(i);
    }
  }
}

void Machine::RunFor(Cycles duration) { engine_.RunUntil(Now() + duration); }

bool Machine::RunUntil(const std::function<bool()>& predicate, Cycles deadline) {
  engine_.RunUntilCondition(predicate, Now() + deadline);
  return predicate();
}

bool Machine::RunUntilAllExited(Cycles deadline) {
  return RunUntil([this] { return live_tasks_ == 0; }, deadline);
}

// ---------------------------------------------------------------------------
// schedule() path
// ---------------------------------------------------------------------------

void Machine::RequestSchedule(int cpu_id) {
  Cpu& c = *cpus_[static_cast<size_t>(cpu_id)];
  if (c.stalled) {
    c.need_resched = true;  // Re-examined when the CPU rejoins.
    return;
  }
  if (c.schedule_pending) {
    return;
  }
  ELSC_CHECK_MSG(c.segment_event == 0, "schedule requested with a live segment");
  c.schedule_pending = true;
  UpdateIdleMask(cpu_id);
  c.schedule_requested_at = Now();
  if (!scheduler_->uses_global_lock()) {
    // Per-CPU-queue schedulers serialize on their own CPU's run-queue lock
    // instead of the global runqueue_lock.
    AcquireCpuLock(cpu_id);
    return;
  }
  ELSC_CHECK(lock_waiters_size_ < lock_waiters_.size());
  size_t tail = lock_waiters_head_ + lock_waiters_size_++;
  if (tail >= lock_waiters_.size()) {
    tail -= lock_waiters_.size();
  }
  lock_waiters_[tail] = cpu_id;
  TryGrantLock();
}

void Machine::AcquireCpuLock(int cpu_id) {
  CpuLockStats& lock = cpu_locks_[static_cast<size_t>(cpu_id)];
  if (lock.held_until > Now()) {
    // A migrating pick on another CPU holds this CPU's lock: spin until the
    // holder's release time, then retry. The spin time lands in
    // DoSchedule()'s lock_wait (Now() - schedule_requested_at).
    ++lock.contended;
    ++scheduler_->mutable_stats().percpu_lock_contended;
    engine_.ScheduleAfter(lock.held_until - Now(), [this, cpu_id] { AcquireCpuLock(cpu_id); });
    return;
  }
  DoSchedule(cpu_id);
}

void Machine::TryGrantLock() {
  if (lock_held_ || lock_waiters_size_ == 0) {
    return;
  }
  lock_held_ = true;
  const int cpu_id = lock_waiters_[lock_waiters_head_];
  if (++lock_waiters_head_ == lock_waiters_.size()) {
    lock_waiters_head_ = 0;
  }
  --lock_waiters_size_;
  DoSchedule(cpu_id);
}

void Machine::DoSchedule(int cpu_id) {
  Cpu& c = *cpus_[static_cast<size_t>(cpu_id)];
  Task* prev = c.current;

  // Time spent spinning on the run-queue lock before the pick could begin.
  const Cycles lock_wait = Now() - c.schedule_requested_at;
  scheduler_->mutable_stats().lock_wait_cycles += lock_wait;
  c.stats.sched_cycles += lock_wait;

  CostMeter meter(config_.cost_model);
  Task* next = scheduler_->Schedule(cpu_id, prev, meter);
  CheckInvariantsIfEnabled();
  if (pick_observer_) {
    pick_observer_(cpu_id, prev, next);
  }

  // Claim the pick immediately: between here and the dispatch event another
  // CPU may run its own schedule() (always possible for per-CPU-queue
  // schedulers; the global lock otherwise serializes pick+dispatch), and it
  // must not select the same task. The kernel equivalent is taking the task
  // before dropping the lock.
  if (next != nullptr) {
    next->has_cpu = 1;
  }

  Cycles pick_cost = meter.cycles();
  if (pending_lock_stall_ > 0 && scheduler_->uses_global_lock()) {
    // Lock-holder preemption spike: this pick holds the run-queue lock
    // longer, so every waiter behind it eats the delay too.
    pick_cost += pending_lock_stall_;
    stats_.lock_stall_cycles += pending_lock_stall_;
    pending_lock_stall_ = 0;
  }
  if (!scheduler_->uses_global_lock()) {
    SchedStats& ss = scheduler_->mutable_stats();
    CpuLockStats& own = cpu_locks_[static_cast<size_t>(cpu_id)];
    ++own.acquisitions;
    own.wait_cycles += lock_wait;
    ++ss.percpu_lock_acquisitions;
    ss.percpu_lock_wait_cycles += lock_wait;

    // Migration double-lock: the pick also took the source CPUs' locks,
    // acquired in ascending CPU index (the deadlock-avoidance order every
    // per-CPU-queue scheduler must follow). If a remote lock is still held
    // by an in-flight pick, this pick spins for the residue — the wait is
    // serial with the pick, so it lands in pick_cost.
    if (!meter.remote_locks().empty()) {
      std::vector<int> remotes = meter.remote_locks();
      std::sort(remotes.begin(), remotes.end());
      remotes.erase(std::unique(remotes.begin(), remotes.end()), remotes.end());
      Cycles remote_wait = 0;
      for (int r : remotes) {
        ELSC_CHECK(r >= 0 && r < num_cpus() && r != cpu_id);
        CpuLockStats& rl = cpu_locks_[static_cast<size_t>(r)];
        ++rl.remote_acquisitions;
        ++ss.double_locks;
        if (rl.held_until > Now()) {
          ++rl.contended;
          ++ss.percpu_lock_contended;
          const Cycles residue = rl.held_until - Now();
          rl.wait_cycles += residue;
          remote_wait = std::max(remote_wait, residue);
        }
      }
      if (remote_wait > 0) {
        pick_cost += remote_wait;
        ss.lock_wait_cycles += remote_wait;
        ss.percpu_lock_wait_cycles += remote_wait;
      }
      // Every remote lock stays held to the end of this pick.
      const Cycles release_at = Now() + pick_cost;
      for (int r : remotes) {
        CpuLockStats& rl = cpu_locks_[static_cast<size_t>(r)];
        const Cycles start = std::max(rl.held_until, Now());
        if (release_at > start) {
          rl.hold_cycles += release_at - start;
          ss.percpu_lock_hold_cycles += release_at - start;
          rl.held_until = release_at;
        }
      }
    }
    // Own lock held for the pick's duration.
    own.held_until = Now() + pick_cost;
    own.hold_cycles += pick_cost;
    ss.percpu_lock_hold_cycles += pick_cost;
  }
  engine_.ScheduleAfter(pick_cost,
                        [this, cpu_id, next, pick_cost] { FinishSchedule(cpu_id, next, pick_cost); });
}

void Machine::FinishSchedule(int cpu_id, Task* next, Cycles pick_cost) {
  Cpu& c = *cpus_[static_cast<size_t>(cpu_id)];
  c.stats.sched_cycles += pick_cost;
  const bool global_lock = scheduler_->uses_global_lock();
  if (global_lock) {
    lock_held_ = false;
  }
  c.schedule_pending = false;
  Dispatch(cpu_id, next);
  UpdateIdleMask(cpu_id);
  // A wakeup may have arrived while this schedule() was in flight. The
  // running case is handled when the segment is installed; the idle case
  // must re-enter schedule() here or the wake would be lost.
  if (c.current == nullptr && c.need_resched) {
    c.need_resched = false;
    RequestSchedule(cpu_id);
  }
  if (global_lock) {
    TryGrantLock();
  }
}

void Machine::Dispatch(int cpu_id, Task* next) {
  Cpu& c = *cpus_[static_cast<size_t>(cpu_id)];
  Task* prev = c.current;

  if (prev != nullptr && prev == next) {
    // The scheduler re-picked the current task: no context switch.
    trace_.Record(Now(), TraceEventType::kDispatch, cpu_id, next->pid);
    InstallSegment(cpu_id, 0);
    return;
  }

  if (prev != nullptr) {
    prev->has_cpu = 0;
    if (prev->state == TaskState::kRunning) {
      prev->became_runnable_at = Now();
    }
  }

  if (next == nullptr) {
    if (prev != nullptr) {
      c.current = nullptr;
      c.idle_since = Now();
      ++c.stats.idle_periods;
      trace_.Record(Now(), TraceEventType::kIdle, cpu_id, 0);
      MaybeRecycleTask(prev);
    }
    return;
  }

  if (prev == nullptr) {
    // Leaving idle.
    c.stats.idle_cycles += Now() - c.idle_since;
  }

  Cycles overhead = config_.cost_model.context_switch;
  if (prev != nullptr && prev->mm != next->mm) {
    overhead += config_.cost_model.mm_switch;
  }
  if (config_.smp && next->processor != cpu_id) {
    // Cold caches on the new CPU: the task's first stretch of work runs
    // slower; modeled as a lump warm-up cost.
    overhead += config_.cost_model.cache_migration_penalty;
    ++next->stats.migrations;
    ++stats_.migrations;
  }

  next->has_cpu = 1;
  next->processor = cpu_id;
  ++next->stats.times_scheduled;
  if (next->became_runnable_at <= Now()) {
    next->stats.wait_cycles += Now() - next->became_runnable_at;
  }

  c.current = next;
  ++c.stats.dispatches;
  ++c.stats.context_switches;
  ++stats_.context_switches;

  trace_.Record(Now(), TraceEventType::kDispatch, cpu_id, next->pid);

  InstallSegment(cpu_id, overhead);
  if (prev != nullptr) {
    MaybeRecycleTask(prev);
  }
}

// ---------------------------------------------------------------------------
// Segment execution
// ---------------------------------------------------------------------------

Segment Machine::FetchSegment(Task* task) {
  ELSC_CHECK_MSG(task->behavior != nullptr, "task has no behavior to run");
  Segment seg = task->behavior->NextSegment(*this, *task);
  if (seg.after == SegmentAfter::kBlock) {
    ELSC_CHECK_MSG(seg.wait_on != nullptr, "kBlock segment without a wait queue");
  }
  if (seg.after == SegmentAfter::kRunAgain) {
    ELSC_CHECK_MSG(seg.cycles > 0, "kRunAgain segment must make progress");
  }
  return seg;
}

void Machine::InstallSegment(int cpu_id, Cycles overhead) {
  Cpu& c = *cpus_[static_cast<size_t>(cpu_id)];
  if (c.stalled) {
    return;  // Parked; ResumeCpu() re-installs the segment at rejoin.
  }
  Task* task = c.current;
  ELSC_CHECK(task != nullptr);

  if (!task->segment_active) {
    Segment seg = FetchSegment(task);
    task->segment_remaining = seg.cycles;
    task->pending_after = static_cast<int>(seg.after);
    task->pending_wait = seg.wait_on;
    task->pending_sleep = seg.sleep_for;
    task->pending_block_timeout = seg.block_timeout;
    task->pending_block_check = std::move(seg.still_blocked);
    task->segment_active = true;
  }

  c.segment_started_at = Now();
  c.segment_overhead = overhead;
  c.segment_useful = task->segment_remaining;
  const uint64_t generation = ++c.dispatch_generation;
  c.segment_event = engine_.ScheduleAfter(
      overhead + task->segment_remaining, [this, cpu_id, generation] { OnSegmentEnd(cpu_id, generation); });

  if (c.need_resched) {
    // A wakeup during the behavior callback decided to preempt this CPU.
    c.need_resched = false;
    PreemptCpu(cpu_id);
  }
}

void Machine::StopSegment(int cpu_id) {
  Cpu& c = *cpus_[static_cast<size_t>(cpu_id)];
  if (c.segment_event == 0) {
    return;
  }
  engine_.Cancel(c.segment_event);
  c.segment_event = 0;

  Task* task = c.current;
  ELSC_CHECK(task != nullptr);
  const Cycles elapsed = Now() - c.segment_started_at;
  c.stats.busy_cycles += elapsed;
  Cycles useful = elapsed > c.segment_overhead ? elapsed - c.segment_overhead : 0;
  useful = std::min(useful, task->segment_remaining);
  task->segment_remaining -= useful;
  task->stats.cpu_cycles += useful;
  // The segment stays active; the task resumes the remainder when next
  // dispatched.
}

void Machine::OnSegmentEnd(int cpu_id, uint64_t generation) {
  Cpu& c = *cpus_[static_cast<size_t>(cpu_id)];
  if (generation != c.dispatch_generation || c.segment_event == 0) {
    return;  // Stale event (the segment was preempted/cancelled).
  }
  c.segment_event = 0;

  Task* task = c.current;
  ELSC_CHECK(task != nullptr);
  const Cycles elapsed = Now() - c.segment_started_at;
  c.stats.busy_cycles += elapsed;
  task->stats.cpu_cycles += c.segment_useful;
  task->segment_active = false;
  task->segment_remaining = 0;

  switch (static_cast<SegmentAfter>(task->pending_after)) {
    case SegmentAfter::kBlock: {
      // Re-check the wait condition at the moment we would sleep (the
      // kernel's add_wait_queue / re-test / schedule() idiom): if it was
      // satisfied while this segment was finishing, skip the sleep — the
      // task stays runnable and retries after its next dispatch.
      if (task->pending_block_check && !task->pending_block_check()) {
        task->pending_block_check = nullptr;
        RequestSchedule(cpu_id);
        break;
      }
      task->pending_block_check = nullptr;
      task->state = TaskState::kInterruptible;
      task->block_timed_out = false;
      const uint64_t sleep_generation = ++task->sleep_generation;
      ++task->stats.voluntary_switches;
      task->pending_wait->Enqueue(task);
      if (task->pending_block_timeout > 0) {
        // Timed block (SO_RCVTIMEO/SO_SNDTIMEO analog): a deadline event
        // wakes the task with block_timed_out set unless a regular wake-up
        // got there first. The generation check makes a stale deadline inert
        // once the task has moved on to a later block or sleep; the
        // pending-wake count keeps the arena from recycling the slot.
        Task* blocked = task;
        ++blocked->pending_timer_wakes;
        engine_.ScheduleAfter(
            task->pending_block_timeout, [this, blocked, sleep_generation] {
              --blocked->pending_timer_wakes;
              if (blocked->state == TaskState::kInterruptible &&
                  blocked->sleep_generation == sleep_generation) {
                blocked->block_timed_out = true;
                WakeUpProcess(blocked);
              }
              MaybeRecycleTask(blocked);
            });
      }
      trace_.Record(Now(), TraceEventType::kBlock, cpu_id, task->pid);
      RequestSchedule(cpu_id);
      break;
    }
    case SegmentAfter::kSleep: {
      task->state = TaskState::kInterruptible;
      ++task->sleep_generation;  // Invalidates any stale block deadline.
      ++task->stats.voluntary_switches;
      // Timer-driven wake; WakeUpProcess() tolerates the task having been
      // woken earlier (or having exited) by then. The pending-wake count
      // keeps the arena from recycling a zombie this event still points at.
      Task* sleeper = task;
      ++sleeper->pending_timer_wakes;
      engine_.ScheduleAfter(task->pending_sleep, [this, sleeper] {
        --sleeper->pending_timer_wakes;
        WakeUpProcess(sleeper);
        MaybeRecycleTask(sleeper);
      });
      trace_.Record(Now(), TraceEventType::kSleep, cpu_id, task->pid);
      RequestSchedule(cpu_id);
      break;
    }
    case SegmentAfter::kYield: {
      ++task->stats.yields;
      // sys_sched_yield(): flag the task and move it to the back of the run
      // queue so equal-goodness peers win the tie.
      if (PolicyBase(task->policy) == kSchedOther) {
        task->policy |= kSchedYield;
      }
      if (task->OnRunQueue()) {
        scheduler_->MoveLastRunQueue(task);
      }
      trace_.Record(Now(), TraceEventType::kYield, cpu_id, task->pid);
      RequestSchedule(cpu_id);
      break;
    }
    case SegmentAfter::kExit: {
      ExitTask(cpu_id, task);
      RequestSchedule(cpu_id);
      break;
    }
    case SegmentAfter::kRunAgain: {
      InstallSegment(cpu_id, 0);
      break;
    }
  }
}

void Machine::ExitTask(int cpu_id, Task* task) {
  task->state = TaskState::kZombie;
  ++task->stats.voluntary_switches;
  trace_.Record(Now(), TraceEventType::kExit, cpu_id, task->pid);
  task_list_.Remove(task);
  ELSC_CHECK(live_tasks_ > 0);
  --live_tasks_;
  ++stats_.tasks_exited;
  if (task->behavior != nullptr) {
    task->behavior->OnExit(*this, *task);
  }
}

// ---------------------------------------------------------------------------
// Preemption & wakeups
// ---------------------------------------------------------------------------

void Machine::PreemptCpu(int cpu_id) {
  Cpu& c = *cpus_[static_cast<size_t>(cpu_id)];
  if (c.stalled) {
    c.need_resched = true;  // Honored when the CPU rejoins.
    return;
  }
  if (c.schedule_pending) {
    return;  // Already on its way into schedule().
  }
  if (c.current == nullptr) {
    RequestSchedule(cpu_id);
    return;
  }
  if (c.segment_event == 0) {
    // Mid-callback (behavior running): honor once the segment is installed.
    c.need_resched = true;
    return;
  }
  StopSegment(cpu_id);
  ++c.current->stats.preemptions;
  trace_.Record(Now(), TraceEventType::kPreempt, cpu_id, c.current->pid);
  RequestSchedule(cpu_id);
}

void Machine::RescheduleIdle(Task* woken) {
  // reschedule_idle(): prefer the woken task's last CPU if it is idle, then
  // any idle CPU, then the CPU whose current task it beats by the largest
  // preemption-goodness margin. The idle-CPU mask answers the first two
  // preferences in O(1) — the bit for CPU i is set exactly when
  // current == nullptr && !schedule_pending && !stalled, and Lowest() is the
  // first match of the old ascending-id scan. On one CPU (UP or 1P) this is
  // the uniprocessor rule: schedule the CPU if idle, park the wake on its
  // need_resched if it is stalled or inside schedule(), else preempt when
  // the woken task wins.
  if (idle_cpus_.Test(woken->processor)) {
    RequestSchedule(woken->processor);
    return;
  }
  if (!scheduler_->uses_global_lock()) {
    Cpu& home = *cpus_[static_cast<size_t>(woken->processor)];
    if (home.schedule_pending) {
      // Per-CPU queues anchor this wake to the home CPU's run queue, and the
      // pick in flight there predates the enqueue. Under the global lock any
      // other CPU's next schedule() would still see the task; here nobody
      // else is guaranteed to (an idle CPU's rescue pull skips depth-1
      // queues), so the home CPU must re-run schedule() when its pick lands.
      home.need_resched = true;
    }
  }
  const int first_idle = idle_cpus_.Lowest();
  if (first_idle >= 0) {
    RequestSchedule(first_idle);
    return;
  }
  int best_cpu = -1;
  long best_delta = 0;
  bool all_pending = true;
  for (auto& cpu : cpus_) {
    // Stalled CPUs are unavailable for preemption; if every CPU is stalled
    // or mid-schedule(), the all_pending fallback below parks the wake on
    // the home CPU's need_resched, honored at rejoin.
    if (cpu->stalled || cpu->schedule_pending || cpu->current == nullptr) {
      continue;
    }
    all_pending = false;
    const long delta = scheduler_->PreemptionDelta(*woken, *cpu->current, cpu->id);
    if (delta > best_delta) {
      best_delta = delta;
      best_cpu = cpu->id;
    }
  }
  if (best_cpu >= 0) {
    ++stats_.preempt_requests;
    ++scheduler_->mutable_stats().preemption_ipis;
    PreemptCpu(best_cpu);
    return;
  }
  if (all_pending) {
    // Every CPU is mid-schedule(): their picks predate this wakeup. Make the
    // woken task's home CPU re-run schedule() once its pick lands, so the
    // wake is never silently dropped.
    cpus_[static_cast<size_t>(woken->processor)]->need_resched = true;
  }
}

void Machine::WakeUpProcess(Task* task) {
  if (task->state == TaskState::kRunning || task->state == TaskState::kZombie) {
    return;  // Already runnable (spurious wake) or gone.
  }
  if (task->waiting_on != nullptr) {
    task->waiting_on->Remove(task);
  }
  task->state = TaskState::kRunning;
  task->became_runnable_at = Now();
  ++stats_.wakeups;
  trace_.Record(Now(), TraceEventType::kWake, -1, task->pid);
  if (!task->OnRunQueue()) {
    scheduler_->AddToRunQueue(task);
  }
  CheckInvariantsIfEnabled();
  RescheduleIdle(task);
}

void Machine::SetTaskPriority(Task* task, long priority) {
  ELSC_CHECK(priority >= kMinPriority && priority <= kMaxPriority);
  task->priority = priority;
  // "Its priority almost never changes, though when it does, the ELSC
  // scheduler adapts accordingly" (paper §5): re-file a waiting runnable
  // task so its run-queue placement reflects the new priority. A task
  // currently executing is re-filed naturally at its next schedule().
  if (task->OnRunQueue() && task->has_cpu == 0) {
    scheduler_->DelFromRunQueue(task);
    scheduler_->AddToRunQueue(task);
  }
  CheckInvariantsIfEnabled();
}

void Machine::SetTaskPolicy(Task* task, uint32_t policy, long rt_priority) {
  ELSC_CHECK(PolicyBase(policy) == kSchedOther || PolicyBase(policy) == kSchedFifo ||
             PolicyBase(policy) == kSchedRr);
  ELSC_CHECK(rt_priority >= 0 && rt_priority <= kMaxRtPriority);
  task->policy = (task->policy & kSchedYield) | PolicyBase(policy);
  task->rt_priority = PolicyIsRealtime(policy) ? rt_priority : 0;
  // Re-file a waiting runnable task so sorted run-queue structures see the
  // new class; a running task re-files at its next schedule().
  if (task->OnRunQueue() && task->has_cpu == 0) {
    scheduler_->DelFromRunQueue(task);
    scheduler_->AddToRunQueue(task);
  }
  CheckInvariantsIfEnabled();
  // A policy change can make the task more urgent than something currently
  // running (e.g. promotion to SCHED_FIFO); run the same preemption check a
  // wakeup would.
  if (task->state == TaskState::kRunning && task->has_cpu == 0) {
    RescheduleIdle(task);
  }
}

Task* Machine::ForkTask(Task* parent, const TaskParams& params) {
  ELSC_CHECK_MSG(parent->state == TaskState::kRunning, "fork from a non-running task");
  TaskParams child_params = params;
  if (child_params.mm == nullptr) {
    child_params.mm = parent->mm;  // fork() without exec: shared image model.
  }
  if (child_params.processor < 0) {
    child_params.processor = parent->processor;
  }
  // Split the parent's remaining quantum: the child gets half (rounded up),
  // the parent keeps half — so a fork loop cannot mint CPU share.
  child_params.initial_counter = (parent->counter + 1) >> 1;
  parent->counter >>= 1;
  return CreateTask(child_params);
}

// ---------------------------------------------------------------------------
// Timer
// ---------------------------------------------------------------------------

double Machine::LoadAvg(int which) const {
  ELSC_CHECK(which >= 0 && which < 3);
  return loadavg_[which];
}

void Machine::OnTimerTick() {
  if (pending_tick_drops_ > 0) {
    // Injected tick loss: the interrupt never happens — no counter decay, no
    // quantum expiry, no load sampling — but the timer stays armed.
    --pending_tick_drops_;
    ++stats_.ticks_dropped;
    RearmTimer();
    return;
  }
  ++stats_.ticks;
  // calc_load(): every 5 seconds (500 ticks at HZ=100), fold nr_running into
  // the exponentially-damped 1/5/15-minute averages.
  if (stats_.ticks % 500 == 0) {
    static constexpr double kExp[3] = {
        0.9200444146293233,   // exp(-5s/1min)
        0.9834714538216174,   // exp(-5s/5min)
        0.9944598480048967};  // exp(-5s/15min)
    const auto active = static_cast<double>(scheduler_->nr_running());
    for (int i = 0; i < 3; ++i) {
      loadavg_[i] = loadavg_[i] * kExp[i] + active * (1.0 - kExp[i]);
    }
  }
  for (auto& cpu : cpus_) {
    if (cpu->stalled) {
      continue;  // A stalled CPU takes no ticks.
    }
    Task* task = cpu->current;
    if (task == nullptr) {
      continue;
    }
    // A CPU that is inside schedule() (lock wait / pick in progress) is not
    // executing its previous task; charging the tick to it would mutate a
    // counter while the task may already sit in a sorted run-queue
    // structure, corrupting the ELSC table's ordering invariants.
    if (cpu->schedule_pending) {
      continue;
    }
    // SCHED_FIFO tasks run until they block or yield; everyone else burns
    // quantum, 10 ms per tick.
    if (PolicyBase(task->policy) != kSchedFifo) {
      if (task->counter > 0) {
        --task->counter;
      }
      if (task->counter == 0) {
        ++stats_.quantum_expiries;
        PreemptCpu(cpu->id);
      }
    }
  }
  RearmTimer();
}

void Machine::RearmTimer() {
  const Cycles delay = kTickCycles + pending_tick_jitter_;
  pending_tick_jitter_ = 0;
  engine_.ScheduleAfter(delay, [this] { OnTimerTick(); });
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

void Machine::StallCpu(int cpu_id, Cycles duration) {
  ELSC_CHECK(cpu_id >= 0 && cpu_id < num_cpus());
  Cpu& c = *cpus_[static_cast<size_t>(cpu_id)];
  if (c.stalled || duration == 0) {
    return;
  }
  c.stalled = true;
  UpdateIdleMask(cpu_id);
  ++stats_.cpu_stalls;
  if (c.segment_event != 0) {
    StopSegment(cpu_id);  // Credits partial work; the segment stays active.
  }
  engine_.ScheduleAfter(duration, [this, cpu_id] { ResumeCpu(cpu_id); });
}

void Machine::ResumeCpu(int cpu_id) {
  Cpu& c = *cpus_[static_cast<size_t>(cpu_id)];
  c.stalled = false;
  UpdateIdleMask(cpu_id);
  if (c.schedule_pending) {
    return;  // A pick from before the stall is still in flight.
  }
  if (c.current != nullptr) {
    if (c.segment_event == 0) {
      // Resume the parked segment; a deferred preemption is honored inside.
      InstallSegment(cpu_id, 0);
    }
    return;
  }
  // Idle rejoin: re-enter schedule() so any wake deferred during the stall
  // (or work queued behind busy peers) is picked up immediately.
  c.need_resched = false;
  RequestSchedule(cpu_id);
}

void Machine::UpdateIdleMask(int cpu_id) {
  const Cpu& c = *cpus_[static_cast<size_t>(cpu_id)];
  idle_cpus_.Assign(cpu_id, c.current == nullptr && !c.schedule_pending && !c.stalled);
}

void Machine::MaybeRecycleTask(Task* task) {
  if (!config_.recycle_exited_tasks) {
    return;
  }
  // Safe only once nothing can reach the task anymore: it has exited, no CPU
  // still holds it as its schedule() prev, no timer wake event captured it,
  // and it is off every run-queue structure.
  if (task->state != TaskState::kZombie || task->has_cpu != 0 ||
      task->pending_timer_wakes > 0 || task->OnRunQueue()) {
    return;
  }
  const size_t slot = static_cast<size_t>(task->registry_slot);
  ELSC_CHECK(slot < tasks_.size() && tasks_[slot] == task);
  tasks_[slot] = tasks_.back();
  tasks_[slot]->registry_slot = static_cast<int>(slot);
  tasks_.pop_back();
  task_arena_.Release(task);
}

void Machine::CheckInvariantsIfEnabled() {
  if (config_.check_invariants) {
    scheduler_->CheckInvariants();
    for (int i = 0; i < num_cpus(); ++i) {
      const Cpu& c = *cpus_[static_cast<size_t>(i)];
      ELSC_VERIFY_MSG(idle_cpus_.Test(i) ==
                          (c.current == nullptr && !c.schedule_pending && !c.stalled),
                      "idle-CPU mask disagrees with per-CPU state");
    }
  }
}

}  // namespace elsc
