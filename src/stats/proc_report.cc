#include "src/stats/proc_report.h"

#include "src/base/string_util.h"

namespace elsc {

std::string ConfigLabel(const MachineConfig& config) {
  if (!config.smp) {
    return "UP";
  }
  return StrFormat("%dP", config.num_cpus);
}

std::string RenderProcSchedStats(const Machine& machine) {
  const Scheduler& sched = machine.scheduler();
  const SchedStats& s = sched.stats();
  const MachineStats& m = machine.stats();
  const double elapsed_sec = CyclesToSec(machine.Now());

  std::string out;
  out += StrFormat("scheduler:            %s\n", sched.name());
  out += StrFormat("config:               %s\n", ConfigLabel(machine.config()).c_str());
  out += StrFormat("elapsed_sec:          %.3f\n", elapsed_sec);
  out += StrFormat("schedule_calls:       %llu\n", (unsigned long long)s.schedule_calls);
  out += StrFormat("idle_schedules:       %llu\n", (unsigned long long)s.idle_schedules);
  out += StrFormat("cycles_in_schedule:   %llu\n", (unsigned long long)s.cycles_in_schedule);
  out += StrFormat("lock_wait_cycles:     %llu\n", (unsigned long long)s.lock_wait_cycles);
  out += StrFormat("cycles_per_schedule:  %.1f\n", s.CyclesPerSchedule());
  out += StrFormat("tasks_examined:       %llu\n", (unsigned long long)s.tasks_examined);
  out += StrFormat("tasks_examined_avg:   %.2f\n", s.TasksExaminedPerCall());
  out += StrFormat("recalc_entries:       %llu\n", (unsigned long long)s.recalc_entries);
  out += StrFormat("recalc_tasks:         %llu\n", (unsigned long long)s.recalc_tasks_touched);
  out += StrFormat("picks_new_processor:  %llu\n", (unsigned long long)s.picks_new_processor);
  out += StrFormat("picks_prev:           %llu\n", (unsigned long long)s.picks_prev);
  out += StrFormat("yield_reruns:         %llu\n", (unsigned long long)s.yield_reruns);
  out += StrFormat("preemption_ipis:      %llu\n", (unsigned long long)s.preemption_ipis);
  out += StrFormat("context_switches:     %llu\n", (unsigned long long)m.context_switches);
  out += StrFormat("migrations:           %llu\n", (unsigned long long)m.migrations);
  out += StrFormat("wakeups:              %llu\n", (unsigned long long)m.wakeups);
  out += StrFormat("quantum_expiries:     %llu\n", (unsigned long long)m.quantum_expiries);
  out += StrFormat("timer_ticks:          %llu\n", (unsigned long long)m.ticks);
  out += StrFormat("nr_running:           %zu\n", sched.nr_running());
  out += StrFormat("loadavg:              %.2f %.2f %.2f\n", machine.LoadAvg(0),
                   machine.LoadAvg(1), machine.LoadAvg(2));
  // Memory high-water marks: at million-connection scale, footprint is as
  // much a scheduler-viability question as throughput.
  out += StrFormat("peak_live_tasks:      %llu\n",
                   (unsigned long long)m.peak_live_tasks);
  out += StrFormat("task_arena_bytes:     %llu\n",
                   (unsigned long long)machine.task_arena_bytes());
  out += StrFormat("task_arena_chunks:    %llu\n",
                   (unsigned long long)machine.task_arena_stats().chunks);

  // Per-CPU run-queue lock block: only rendered for per-CPU-queue schedulers
  // (the counters are identically zero under a global-lock scheduler, and
  // gating keeps the classic report byte-for-byte what it always was).
  if (s.percpu_lock_acquisitions > 0) {
    out += StrFormat("percpu_lock_acq:      %llu\n",
                     (unsigned long long)s.percpu_lock_acquisitions);
    out += StrFormat("percpu_lock_contended: %llu\n",
                     (unsigned long long)s.percpu_lock_contended);
    out += StrFormat("percpu_lock_hold_cycles: %llu\n",
                     (unsigned long long)s.percpu_lock_hold_cycles);
    out += StrFormat("percpu_lock_wait_cycles: %llu\n",
                     (unsigned long long)s.percpu_lock_wait_cycles);
    out += StrFormat("double_locks:         %llu\n", (unsigned long long)s.double_locks);
    out += StrFormat("load_balance_calls:   %llu\n",
                     (unsigned long long)s.load_balance_calls);
    out += StrFormat("pull_migrations:      %llu\n",
                     (unsigned long long)s.pull_migrations);
    out += StrFormat("array_swaps:          %llu\n", (unsigned long long)s.array_swaps);
    for (int i = 0; i < machine.num_cpus(); ++i) {
      const CpuLockStats& lock = machine.cpu_lock(i);
      out += StrFormat(
          "cpu%d lock: acq=%llu remote=%llu contended=%llu hold=%llu wait=%llu\n", i,
          (unsigned long long)lock.acquisitions, (unsigned long long)lock.remote_acquisitions,
          (unsigned long long)lock.contended, (unsigned long long)lock.hold_cycles,
          (unsigned long long)lock.wait_cycles);
    }
  }

  // The trace ring overwrites its oldest records when full; surfacing the
  // drop count here means a report reader never mistakes a truncated trace
  // for the whole run.
  const TraceRecorder& trace = machine.trace();
  if (trace.enabled()) {
    out += StrFormat("trace_recorded:       %llu\n", (unsigned long long)trace.total_recorded());
    out += StrFormat("trace_dropped:        %llu%s\n", (unsigned long long)trace.dropped(),
                     trace.lossless() ? "" : "  (ring wrapped; trace is a suffix of the run)");
  }

  for (int i = 0; i < machine.num_cpus(); ++i) {
    const Cpu& cpu = machine.cpu(i);
    const double busy = CyclesToSec(cpu.stats.busy_cycles);
    const double sched_time = CyclesToSec(cpu.stats.sched_cycles);
    // Include the still-open idle period of a currently idle CPU so that
    // end-of-run reports account the tail correctly.
    Cycles idle_cycles = cpu.stats.idle_cycles;
    if (cpu.IsIdle() && machine.Now() > cpu.idle_since) {
      idle_cycles += machine.Now() - cpu.idle_since;
    }
    const double idle = CyclesToSec(idle_cycles);
    out += StrFormat("cpu%d: busy=%.3fs sched=%.3fs idle=%.3fs dispatches=%llu switches=%llu\n",
                     i, busy, sched_time, idle, (unsigned long long)cpu.stats.dispatches,
                     (unsigned long long)cpu.stats.context_switches);
  }
  return out;
}

std::string RenderSocketStats(const std::string& name, const SocketStats& s) {
  std::string out;
  out += StrFormat("socket:               %s\n", name.c_str());
  out += StrFormat("writes:               %llu\n", (unsigned long long)s.writes);
  out += StrFormat("reads:                %llu\n", (unsigned long long)s.reads);
  out += StrFormat("write_blocks:         %llu\n", (unsigned long long)s.write_blocks);
  out += StrFormat("read_blocks:          %llu\n", (unsigned long long)s.read_blocks);
  out += StrFormat("read_timeouts:        %llu\n", (unsigned long long)s.read_timeouts);
  out += StrFormat("write_timeouts:       %llu\n", (unsigned long long)s.write_timeouts);
  out += StrFormat("max_depth:            %llu\n", (unsigned long long)s.max_depth);
  // Lifecycle block: only rendered once any lifecycle event happened, so a
  // classic closed-loop run's report is byte-for-byte what it always was.
  const uint64_t lifecycle = s.closes + s.peer_resets + s.half_opens + s.reopens +
                             s.read_eofs + s.read_resets + s.write_closed +
                             s.write_resets + s.discarded;
  if (lifecycle > 0) {
    out += StrFormat("closes:               %llu\n", (unsigned long long)s.closes);
    out += StrFormat("peer_resets:          %llu\n", (unsigned long long)s.peer_resets);
    out += StrFormat("half_opens:           %llu\n", (unsigned long long)s.half_opens);
    out += StrFormat("reopens:              %llu\n", (unsigned long long)s.reopens);
    out += StrFormat("read_eofs:            %llu\n", (unsigned long long)s.read_eofs);
    out += StrFormat("read_resets:          %llu\n", (unsigned long long)s.read_resets);
    out += StrFormat("write_closed:         %llu\n", (unsigned long long)s.write_closed);
    out += StrFormat("write_resets:         %llu\n", (unsigned long long)s.write_resets);
    out += StrFormat("discarded:            %llu\n", (unsigned long long)s.discarded);
  }
  return out;
}

std::string RenderSupervisionReport(const SupervisionStats& stats) {
  std::string out;
  out += "--- supervision ---\n";
  out += StrFormat("cells:                %llu\n", (unsigned long long)stats.cells);
  out += StrFormat("completed:            %llu\n", (unsigned long long)stats.completed);
  out += StrFormat("quarantined:          %llu\n", (unsigned long long)stats.quarantined);
  out += StrFormat("skipped:              %llu\n", (unsigned long long)stats.skipped);
  out += StrFormat("resumed_from_journal: %llu\n", (unsigned long long)stats.resumed);
  out += StrFormat("retries:              %llu\n", (unsigned long long)stats.retries);
  out += StrFormat("timeouts:             %llu\n", (unsigned long long)stats.timeouts);
  out += StrFormat("violations:           %llu\n", (unsigned long long)stats.violations);
  out += StrFormat("exceptions:           %llu\n", (unsigned long long)stats.exceptions);
  out += StrFormat("interrupted:          %d\n", stats.interrupted ? 1 : 0);
  return out;
}

}  // namespace elsc
