#include "src/faults/auditor.h"

#include "src/base/assert.h"
#include "src/base/string_util.h"
#include "src/kernel/policy.h"
#include "src/sched/elsc_scheduler.h"
#include "src/sched/o1_scheduler.h"

namespace elsc {

namespace {
// Steady-state counter ceiling: recalculation assigns counter/2 + priority,
// which converges below 2 * kMaxPriority; fork halves, ticks decrement.
constexpr long kMaxCounter = 2 * kMaxPriority;
}  // namespace

SchedulerAuditor::SchedulerAuditor(Machine& machine, const AuditConfig& config)
    : machine_(machine), config_(config) {}

SchedulerAuditor::~SchedulerAuditor() {
  if (observer_installed_) {
    machine_.SetPickObserver(nullptr);
  }
}

void SchedulerAuditor::Arm() {
  if (!config_.enabled) {
    return;
  }
  if (config_.audit_picks) {
    machine_.SetPickObserver([this](int cpu_id, const Task* prev, const Task* next) {
      ObservePick(cpu_id, prev, next);
    });
    observer_installed_ = true;
  }
  if (config_.period > 0) {
    machine_.engine().ScheduleAfter(config_.period, [this] { AuditTick(); });
  }
  if (config_.livelock_window > 0) {
    last_nr_running_ = machine_.scheduler().nr_running();
    machine_.engine().ScheduleAfter(config_.livelock_window, [this] { LivelockTick(); });
  }
}

// ---------------------------------------------------------------------------
// Periodic invariant sweep
// ---------------------------------------------------------------------------

void SchedulerAuditor::AuditTick() {
  ++stats_.audits;
  AuditConservation();
  AuditCounters();
  AuditStructure();
  AuditElscTable();
  AuditO1Queues();
  if (config_.starvation_threshold > 0) {
    CheckStarvation();
  }
  machine_.engine().ScheduleAfter(config_.period, [this] { AuditTick(); });
}

void SchedulerAuditor::AuditConservation() {
  // Shadow reference model: recount the run queue from the global task list
  // and cross-check every derived counter the scheduler maintains.
  size_t on_queue = 0;
  size_t live = 0;
  for (const auto& owned : machine_.all_tasks()) {
    const Task* t = owned;
    if (t->state != TaskState::kZombie) {
      ++live;
    }
    if (t->OnRunQueue()) {
      ++on_queue;
      // Anything on the queue is runnable — or still holds a CPU while its
      // final schedule() is in flight (block/exit windows).
      if (t->state != TaskState::kRunning && t->has_cpu == 0) {
        ++stats_.conservation_violations;
      }
    } else if (t->state == TaskState::kRunning && t->has_cpu == 0) {
      // Lost task: runnable, not queued, not running anywhere. It can never
      // be picked again — the classic dropped-wakeup corruption.
      ++stats_.conservation_violations;
    }
  }
  if (on_queue != machine_.scheduler().nr_running()) {
    ++stats_.conservation_violations;
  }
  if (live != machine_.live_tasks()) {
    ++stats_.conservation_violations;
  }
}

void SchedulerAuditor::AuditCounters() {
  for (const auto& owned : machine_.all_tasks()) {
    const Task* t = owned;
    if (t->state == TaskState::kZombie) {
      continue;
    }
    if (t->counter < 0 || t->counter > kMaxCounter ||
        t->priority < kMinPriority || t->priority > kMaxPriority ||
        t->rt_priority < 0 || t->rt_priority > kMaxRtPriority) {
      ++stats_.counter_violations;
    }
  }
}

void SchedulerAuditor::AuditStructure() {
  // The scheduler's own structural sweep, made non-fatal: ELSC_VERIFY
  // failures unwind into the trap and are counted here instead of aborting.
  ViolationTrap trap;
  try {
    machine_.scheduler().CheckInvariants();
  } catch (const InvariantViolation&) {
    ++stats_.structure_violations;
  }
}

void SchedulerAuditor::AuditElscTable() {
  const auto* elsc = dynamic_cast<const ElscScheduler*>(&machine_.scheduler());
  if (elsc == nullptr) {
    return;
  }
  // Freshness of the table's sort: every resident task must still belong in
  // the list it is filed under. (Insertion files it correctly; nothing may
  // mutate counter/priority/policy while it sits in a list.)
  const ElscRunQueue& table = elsc->table();
  for (int i = 0; i < table.table_config().total_lists(); ++i) {
    const ListHead* head = table.list_head(i);
    for (const ListHead* node = head->next; node != head; node = node->next) {
      const Task* t = ListEntry<Task, &Task::run_list>(const_cast<ListHead*>(node));
      if (table.IndexFor(*t) != i) {
        ++stats_.table_violations;
      }
    }
  }
}

void SchedulerAuditor::AuditO1Queues() {
  const auto* o1 = dynamic_cast<const O1Scheduler*>(&machine_.scheduler());
  if (o1 == nullptr) {
    return;
  }
  // Shadow re-derivation of the per-CPU prio_array filing: every resident
  // task must sit in the priority list its policy/priority map to. Executing
  // tasks are exempt — a priority change while running is re-filed lazily at
  // the task's next schedule() (see O1Scheduler::Schedule).
  for (int cpu = 0; cpu < machine_.num_cpus(); ++cpu) {
    for (int slot = 0; slot < O1Scheduler::kNumArrays; ++slot) {
      for (int prio = 0; prio < O1Scheduler::kPrioLevels; ++prio) {
        const ListHead* head = o1->ListAt(cpu, slot, prio);
        for (const ListHead* node = head->next; node != head; node = node->next) {
          const Task* t = ListEntry<Task, &Task::run_list>(const_cast<ListHead*>(node));
          if (t->has_cpu == 0 && O1Scheduler::PrioIndexOf(*t) != prio) {
            ++stats_.table_violations;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pick audit (via the Machine's pick observer)
// ---------------------------------------------------------------------------

void SchedulerAuditor::ObservePick(int cpu_id, const Task* prev, const Task* next) {
  (void)cpu_id;
  ++stats_.picks_audited;

  // A picked SCHED_OTHER task must have quantum left: every port either
  // skips exhausted tasks or recalculates counters before picking one.
  if (next != nullptr && !PolicyIsRealtime(next->policy) && next->counter <= 0) {
    ++stats_.ordering_violations;
  }

  if (!machine_.scheduler().uses_global_lock()) {
    // Per-CPU-queue schedulers may legitimately idle or run SCHED_OTHER
    // while a peer queue holds better work; goodness ordering is only
    // promised within a queue, so the global candidate audit is skipped.
    return;
  }

  // Candidate set as this pick saw it: runnable, on the run queue, and not
  // executing on another CPU (prev itself still has has_cpu set while its
  // schedule() runs, so it is re-admitted explicitly). Yielded tasks lose
  // all ties by design and are excluded.
  bool any_candidate = false;
  bool rt_candidate = false;
  for (const auto& owned : machine_.all_tasks()) {
    const Task* t = owned;
    if (t->state != TaskState::kRunning || !t->OnRunQueue()) {
      continue;
    }
    if (t->has_cpu != 0 && t != prev) {
      continue;
    }
    if (PolicyHasYield(t->policy)) {
      continue;
    }
    any_candidate = true;
    if (PolicyIsRealtime(t->policy)) {
      rt_candidate = true;
    }
  }
  if (next == nullptr) {
    if (any_candidate) {
      ++stats_.ordering_violations;  // Idled past schedulable work.
    }
  } else if (rt_candidate && !PolicyIsRealtime(next->policy)) {
    ++stats_.ordering_violations;  // Real-time supremacy broken.
  }
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

void SchedulerAuditor::CheckStarvation() {
  const Cycles now = machine_.Now();
  for (const auto& owned : machine_.all_tasks()) {
    const Task* t = owned;
    if (t->state != TaskState::kRunning || t->has_cpu != 0) {
      continue;
    }
    const Cycles waiting = now - t->became_runnable_at;
    if (waiting > config_.starvation_threshold) {
      ++stats_.starvation_reports;
      FailRun(StrFormat(
          "watchdog: starvation — task '%s' (pid %d, counter %ld, priority %ld) "
          "runnable for %.0f ms without being scheduled (threshold %.0f ms)",
          t->name.c_str(), t->pid, t->counter, t->priority, CyclesToMs(waiting),
          CyclesToMs(config_.starvation_threshold)));
      return;
    }
  }
}

void SchedulerAuditor::LivelockTick() {
  const Cycles busy = TotalBusyCycles();
  const uint64_t exited = machine_.stats().tasks_exited;
  const size_t runnable = machine_.scheduler().nr_running();

  // Anything in flight — a live segment, a pick on its way to dispatch, or
  // an injected stall that will rejoin — counts as progress pending.
  bool in_flight = false;
  for (int i = 0; i < machine_.num_cpus(); ++i) {
    const Cpu& c = machine_.cpu(i);
    if (c.segment_event != 0 || c.schedule_pending || c.stalled) {
      in_flight = true;
      break;
    }
  }

  if (runnable > 0 && last_nr_running_ > 0 && busy == last_busy_cycles_ &&
      exited == last_tasks_exited_ && !in_flight) {
    ++stats_.livelock_reports;
    FailRun(StrFormat(
        "watchdog: livelock — %zu runnable task(s) but zero work completed and "
        "nothing in flight over a %.0f ms window",
        runnable, CyclesToMs(config_.livelock_window)));
  }

  last_busy_cycles_ = busy;
  last_tasks_exited_ = exited;
  last_nr_running_ = runnable;
  machine_.engine().ScheduleAfter(config_.livelock_window, [this] { LivelockTick(); });
}

void SchedulerAuditor::FailRun(std::string diagnosis) {
  if (diagnosis_.empty()) {
    diagnosis_ = std::move(diagnosis);
  }
  machine_.engine().Stop();
}

Cycles SchedulerAuditor::TotalBusyCycles() const {
  Cycles total = 0;
  for (int i = 0; i < machine_.num_cpus(); ++i) {
    total += machine_.cpu(i).stats.busy_cycles;
  }
  return total;
}

}  // namespace elsc
