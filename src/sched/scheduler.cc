#include "src/sched/scheduler.h"

#include "src/sched/goodness.h"

namespace elsc {

long Scheduler::PreemptionDelta(const Task& candidate, const Task& running, int cpu) const {
  return PreemptionGoodnessDelta(candidate, running, cpu, config_.smp);
}

void Scheduler::RecalculateCounters() {
  all_tasks_->ForEach([](Task* p) { p->counter = (p->counter >> 1) + p->priority; });
}

void Scheduler::RecordPick(int this_cpu, const Task* prev, Task* next, const CostMeter& meter) {
  ++stats_.schedule_calls;
  stats_.cycles_in_schedule += meter.cycles();
  stats_.tasks_examined += meter.tasks_examined();
  stats_.recalc_entries += meter.recalc_entries();
  stats_.recalc_tasks_touched += meter.recalc_tasks();
  if (next == nullptr) {
    ++stats_.idle_schedules;
    return;
  }
  // Stamp the pick for affinity-staleness accounting.
  next->last_run_stamp = ++cpu_dispatch_seq_[static_cast<size_t>(this_cpu)];
  if (next == prev) {
    ++stats_.picks_prev;
  }
  if (config_.smp && next->processor != this_cpu) {
    ++stats_.picks_new_processor;
    ++stats_.picks_no_affinity;
  }
}

}  // namespace elsc
