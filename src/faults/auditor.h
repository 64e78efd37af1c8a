// SchedulerAuditor: periodically replays a shadow reference model of the run
// queue and cross-checks the scheduler under test — any of the five ports —
// for invariants, plus a starvation/livelock watchdog.
//
// Invariants audited (each counted separately in AuditStats):
//  * conservation — no lost or duplicated runnable tasks: every kRunning
//    task is on the run queue or holds a CPU, the scheduler's nr_running
//    matches the number of on-queue tasks, and created == exited + live.
//  * counters — every live task's counter/priority/rt_priority stays inside
//    its legal range (counter never negative, never above quantum bounds).
//  * structure — the scheduler's own CheckInvariants() sweep (list linkage,
//    per-list size counters, heap property, ELSC top/next_top freshness),
//    run under a ViolationTrap so a corrupt structure is counted, not fatal.
//  * table (ELSC and O(1)) — every resident task actually belongs in the
//    list it is filed under (ELSC: IndexFor(task) == its cached
//    list index in Task::rq_slot; O(1): PrioIndexOf(task) == the priority list holding
//    it, executing tasks exempt until their lazy re-file).
//  * ordering — on every schedule() pick (via the Machine's pick observer):
//    a picked SCHED_OTHER task has quantum left; on global-runqueue
//    schedulers the pick respects real-time supremacy and the CPU never
//    idles past a schedulable candidate.
//
// Violations are reported through RunStats::audit instead of aborting, so
// bench matrices degrade gracefully. The watchdog is the exception: a
// starved runnable task or a livelocked machine stops the run with a
// structured diagnosis (RunStats::failed + failure).

#ifndef SRC_FAULTS_AUDITOR_H_
#define SRC_FAULTS_AUDITOR_H_

#include <cstdint>
#include <string>

#include "src/base/time_units.h"
#include "src/base/token_codec.h"
#include "src/smp/machine.h"

namespace elsc {

struct AuditConfig {
  bool enabled = false;
  // How often the invariant sweep (and starvation scan) runs.
  Cycles period = MsToCycles(10);
  // Audit every schedule() pick through the Machine's pick observer.
  bool audit_picks = true;
  // Watchdog: fail the run if a runnable task goes undispatched this long
  // (0 = off). Must comfortably exceed the workload's worst-case queueing
  // delay (full-population recalculation epochs under storms).
  Cycles starvation_threshold = 0;
  // Watchdog: fail the run if, over a window this long, runnable tasks
  // exist but zero work completes and nothing is in flight (0 = off).
  Cycles livelock_window = 0;
};

// Strict preset used by the chaos tests and bench/chaos_smoke.
inline AuditConfig StrictAudit() {
  AuditConfig config;
  config.enabled = true;
  config.period = MsToCycles(10);
  config.audit_picks = true;
  config.starvation_threshold = SecToCycles(30);
  config.livelock_window = SecToCycles(2);
  return config;
}

struct AuditStats {
  uint64_t audits = 0;         // Periodic sweeps performed.
  uint64_t picks_audited = 0;  // schedule() picks observed.
  uint64_t conservation_violations = 0;
  uint64_t counter_violations = 0;
  uint64_t structure_violations = 0;
  uint64_t table_violations = 0;  // ELSC/O(1) list-index freshness.
  uint64_t ordering_violations = 0;
  uint64_t starvation_reports = 0;
  uint64_t livelock_reports = 0;

  uint64_t violations() const {
    return conservation_violations + counter_violations +
           structure_violations + table_violations + ordering_violations;
  }
  uint64_t watchdog_firings() const {
    return starvation_reports + livelock_reports;
  }
};

// Every AuditStats counter, in codec order.
inline constexpr Counter<AuditStats> kAuditCounters[] = {
    ELSC_COUNTER(AuditStats, audits), ELSC_COUNTER(AuditStats, picks_audited),
    ELSC_COUNTER(AuditStats, conservation_violations), ELSC_COUNTER(AuditStats, counter_violations),
    ELSC_COUNTER(AuditStats, structure_violations), ELSC_COUNTER(AuditStats, table_violations),
    ELSC_COUNTER(AuditStats, ordering_violations), ELSC_COUNTER(AuditStats, starvation_reports),
    ELSC_COUNTER(AuditStats, livelock_reports),
};

class SchedulerAuditor {
 public:
  // The machine must outlive the auditor. Arm() before machine.Start().
  SchedulerAuditor(Machine& machine, const AuditConfig& config);
  ~SchedulerAuditor();

  SchedulerAuditor(const SchedulerAuditor&) = delete;
  SchedulerAuditor& operator=(const SchedulerAuditor&) = delete;

  // Installs the pick observer and schedules the periodic sweeps.
  // No-op when the config is disabled; call at most once.
  void Arm();

  const AuditStats& stats() const { return stats_; }

  // Watchdog verdict: non-empty diagnosis means the run was stopped.
  bool failed() const { return !diagnosis_.empty(); }
  const std::string& diagnosis() const { return diagnosis_; }

 private:
  void AuditTick();
  void LivelockTick();
  void ObservePick(int cpu_id, const Task* prev, const Task* next);

  void AuditConservation();
  void AuditCounters();
  void AuditStructure();
  void AuditElscTable();
  void AuditO1Queues();
  void CheckStarvation();

  void FailRun(std::string diagnosis);
  Cycles TotalBusyCycles() const;

  Machine& machine_;
  AuditConfig config_;
  AuditStats stats_;
  std::string diagnosis_;
  bool observer_installed_ = false;
  // Livelock window baseline.
  Cycles last_busy_cycles_ = 0;
  uint64_t last_tasks_exited_ = 0;
  size_t last_nr_running_ = 0;
};

}  // namespace elsc

#endif  // SRC_FAULTS_AUDITOR_H_
