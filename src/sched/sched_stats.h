// Aggregate scheduler statistics — the counters the paper exposed through
// /proc while running VolanoMark (§6): schedule() call counts, cycles per
// entry, tasks examined, recalculation-loop entries, and picks that place a
// task on a different processor than it last ran on.

#ifndef SRC_SCHED_SCHED_STATS_H_
#define SRC_SCHED_SCHED_STATS_H_

#include <cstdint>

#include "src/base/time_units.h"
#include "src/base/token_codec.h"

namespace elsc {

struct SchedStats {
  uint64_t schedule_calls = 0;       // Entries into schedule().
  uint64_t idle_schedules = 0;       // Picks that found nothing runnable.
  Cycles cycles_in_schedule = 0;     // Cycles spent inside schedule() proper.
  Cycles lock_wait_cycles = 0;       // Cycles spinning on the runqueue lock.
  uint64_t tasks_examined = 0;       // Candidates evaluated across all calls.
  uint64_t recalc_entries = 0;       // Entries into the recalculate loop.
  uint64_t recalc_tasks_touched = 0; // Tasks whose counter was recalculated.
  uint64_t picks_new_processor = 0;  // Chosen task last ran on a different CPU.
  uint64_t picks_prev = 0;           // Chosen task == previous task.
  uint64_t picks_no_affinity = 0;    // SMP pick without the +15 affinity bonus.
  uint64_t yield_reruns = 0;         // ELSC: yielded prev re-run instead of recalc.
  uint64_t wakeups = 0;              // add_to_runqueue() via wake path.
  uint64_t preemption_ipis = 0;      // reschedule_idle() forced a running CPU.

  // Per-CPU run-queue lock model (per-CPU-queue schedulers only; all zero
  // under a global-lock scheduler).
  uint64_t percpu_lock_acquisitions = 0;  // Own-CPU lock takes by picks.
  uint64_t percpu_lock_contended = 0;     // Acquisitions that found it held.
  Cycles percpu_lock_hold_cycles = 0;     // Total per-CPU lock hold time.
  Cycles percpu_lock_wait_cycles = 0;     // Total spin time on per-CPU locks.
  uint64_t double_locks = 0;              // Remote locks taken for migration.
  // O(1) backend counters (zero for every other scheduler).
  uint64_t load_balance_calls = 0;   // load_balance() invocations.
  uint64_t pull_migrations = 0;      // Tasks pulled to another CPU's queue.
  uint64_t array_swaps = 0;          // Active/expired array exchanges.

  double CyclesPerSchedule() const {
    return schedule_calls == 0
               ? 0.0
               : static_cast<double>(cycles_in_schedule + lock_wait_cycles) /
                     static_cast<double>(schedule_calls);
  }

  double TasksExaminedPerCall() const {
    return schedule_calls == 0
               ? 0.0
               : static_cast<double>(tasks_examined) / static_cast<double>(schedule_calls);
  }

  void Reset() { *this = SchedStats{}; }
};

// Every SchedStats counter, in codec order.
inline constexpr Counter<SchedStats> kSchedCounters[] = {
    ELSC_COUNTER(SchedStats, schedule_calls), ELSC_COUNTER(SchedStats, idle_schedules),
    ELSC_COUNTER(SchedStats, cycles_in_schedule), ELSC_COUNTER(SchedStats, lock_wait_cycles),
    ELSC_COUNTER(SchedStats, tasks_examined), ELSC_COUNTER(SchedStats, recalc_entries),
    ELSC_COUNTER(SchedStats, recalc_tasks_touched), ELSC_COUNTER(SchedStats, picks_new_processor),
    ELSC_COUNTER(SchedStats, picks_prev), ELSC_COUNTER(SchedStats, picks_no_affinity),
    ELSC_COUNTER(SchedStats, yield_reruns), ELSC_COUNTER(SchedStats, wakeups),
    ELSC_COUNTER(SchedStats, preemption_ipis), ELSC_COUNTER(SchedStats, percpu_lock_acquisitions),
    ELSC_COUNTER(SchedStats, percpu_lock_contended),
    ELSC_COUNTER(SchedStats, percpu_lock_hold_cycles),
    ELSC_COUNTER(SchedStats, percpu_lock_wait_cycles), ELSC_COUNTER(SchedStats, double_locks),
    ELSC_COUNTER(SchedStats, load_balance_calls), ELSC_COUNTER(SchedStats, pull_migrations),
    ELSC_COUNTER(SchedStats, array_swaps),
};

}  // namespace elsc

#endif  // SRC_SCHED_SCHED_STATS_H_
