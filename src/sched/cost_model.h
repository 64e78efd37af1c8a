// Cycle cost model for scheduler operations.
//
// The simulation charges simulated CPU cycles for the work `schedule()` and
// its helpers perform. The constants below are calibrated to a 400 MHz
// Pentium II-class SMP (the paper's testbed): per-task examination is
// dominated by cache misses walking task structs, and the recalculation loop
// touches *every* task in the system. Absolute values are estimates; the
// experiments depend on the *ratios* (examination cost × queue length vs.
// bounded table search; recalc cost × total tasks).

#ifndef SRC_SCHED_COST_MODEL_H_
#define SRC_SCHED_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "src/base/time_units.h"

namespace elsc {

struct CostModel {
  // schedule() entry: softirq/bottom-half processing + administrative work.
  Cycles schedule_entry = 400;
  // Uncontended runqueue_lock acquire + release (bus-locked ops).
  Cycles lock_acquire = 80;
  // Examining one candidate in the scheduler's search loop: list traversal,
  // task_struct cache misses, goodness() evaluation.
  Cycles task_examine = 250;
  // Counter recalculation, per task in the whole system (for_each_task).
  Cycles recalc_per_task = 120;
  // tasklist_lock release/reacquire bracketing the recalculation loop.
  Cycles recalc_overhead = 300;
  // Post-pick bookkeeping before the context switch.
  Cycles pick_finish = 150;
  // ELSC: computing a table index and splicing a list node.
  Cycles elsc_index = 90;
  // Context switch: switch_to(), stack and register state.
  Cycles context_switch = 900;
  // Additional cost when the next task's mm differs (CR3 reload, TLB flush).
  Cycles mm_switch = 1400;
  // Cold-cache penalty added to a task's first segment after migrating to a
  // CPU it did not last run on (the 15-point affinity bonus exists to avoid
  // paying this).
  Cycles cache_migration_penalty = 12000;
  // try_to_wake_up(): state change + add_to_runqueue + reschedule_idle.
  Cycles wakeup = 250;

  // The paper's testbed configuration.
  static CostModel PentiumII() { return CostModel{}; }

  // A free-of-charge model: all scheduler operations cost zero cycles. Used
  // by unit tests that check algorithmic behaviour, not performance.
  static CostModel Zero() {
    CostModel m;
    m.schedule_entry = 0;
    m.lock_acquire = 0;
    m.task_examine = 0;
    m.recalc_per_task = 0;
    m.recalc_overhead = 0;
    m.pick_finish = 0;
    m.elsc_index = 0;
    m.context_switch = 0;
    m.mm_switch = 0;
    m.cache_migration_penalty = 0;
    m.wakeup = 0;
    return m;
  }
};

// Accumulates the cost and search effort of a single schedule() invocation.
class CostMeter {
 public:
  explicit CostMeter(const CostModel& model) : model_(&model) {}

  const CostModel& model() const { return *model_; }

  void Charge(Cycles cycles) { cycles_ += cycles; }
  void ChargeEntry() { cycles_ += model_->schedule_entry; }
  void ChargeLock() { cycles_ += model_->lock_acquire; }
  // Examining `count` candidates costs exactly what `count` single examines
  // do; a scan that knows its candidate count up front charges once.
  void ChargeExamine(uint64_t count = 1) {
    cycles_ += model_->task_examine * count;
    tasks_examined_ += count;
  }
  void ChargeRecalc(uint64_t task_count) {
    cycles_ += model_->recalc_overhead + model_->recalc_per_task * task_count;
    ++recalc_entries_;
    recalc_tasks_ += task_count;
  }
  void ChargeIndex() { cycles_ += model_->elsc_index; }
  void ChargeFinish() { cycles_ += model_->pick_finish; }
  // A per-CPU-queue scheduler touched CPU `cpu`'s run-queue lock during this
  // pick (migration double-lock). Charges the acquire cost and records the
  // CPU so the Machine can model the mutual-exclusion window: after the pick
  // returns, the Machine re-acquires the recorded locks in ascending CPU
  // index (the documented double-lock order), waits out any that are still
  // held by an in-flight pick, and extends their hold window to the end of
  // this pick. Recording the same CPU twice is allowed (two probes of the
  // same peer) — the Machine deduplicates.
  void ChargeRemoteLock(int cpu) {
    cycles_ += model_->lock_acquire;
    remote_locks_.push_back(cpu);
  }

  Cycles cycles() const { return cycles_; }
  uint64_t tasks_examined() const { return tasks_examined_; }
  uint64_t recalc_entries() const { return recalc_entries_; }
  uint64_t recalc_tasks() const { return recalc_tasks_; }
  const std::vector<int>& remote_locks() const { return remote_locks_; }

 private:
  const CostModel* model_;
  Cycles cycles_ = 0;
  uint64_t tasks_examined_ = 0;
  uint64_t recalc_entries_ = 0;
  uint64_t recalc_tasks_ = 0;
  // CPUs whose run-queue lock the pick acquired remotely (empty for every
  // global-lock scheduler and for picks that never migrate).
  std::vector<int> remote_locks_;
};

}  // namespace elsc

#endif  // SRC_SCHED_COST_MODEL_H_
