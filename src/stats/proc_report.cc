#include "src/stats/proc_report.h"

#include "src/base/string_util.h"

namespace elsc {

std::string ConfigLabel(const MachineConfig& config) {
  if (!config.smp) {
    return "UP";
  }
  return StrFormat("%dP", config.num_cpus);
}

namespace {

// One `<prefix><field>: value` line per counter of `stats`, in table order.
template <typename T, size_t N>
void AppendCounterLines(std::string* out, const char* prefix, const T& stats,
                        const Counter<T> (&table)[N]) {
  static_assert(kTableCoversRecord<T, N>, "a counter is missing from its table");
  for (const Counter<T>& c : table) {
    const std::string label = std::string(prefix) + c.name + ":";
    *out += StrFormat("%-21s %llu\n", label.c_str(),
                      static_cast<unsigned long long>(stats.*c.field));
  }
}

}  // namespace

std::string RenderProcSchedStats(const Machine& machine) {
  const Scheduler& sched = machine.scheduler();
  const SchedStats& s = sched.stats();
  const double elapsed_sec = CyclesToSec(machine.Now());

  std::string out;
  out += StrFormat("scheduler:            %s\n", sched.name());
  out += StrFormat("config:               %s\n", ConfigLabel(machine.config()).c_str());
  out += StrFormat("elapsed_sec:          %.3f\n", elapsed_sec);
  AppendCounterLines(&out, "sched.", s, kSchedCounters);
  out += StrFormat("cycles_per_schedule:  %.1f\n", s.CyclesPerSchedule());
  out += StrFormat("tasks_examined_avg:   %.2f\n", s.TasksExaminedPerCall());
  AppendCounterLines(&out, "machine.", machine.stats(), kMachineCounters);
  out += StrFormat("nr_running:           %zu\n", sched.nr_running());
  out += StrFormat("loadavg:              %.2f %.2f %.2f\n", machine.LoadAvg(0),
                   machine.LoadAvg(1), machine.LoadAvg(2));
  // Memory high-water marks: at million-connection scale, footprint is as
  // much a scheduler-viability question as throughput.
  out += StrFormat("task_arena_bytes:     %llu\n",
                   (unsigned long long)machine.task_arena_bytes());
  out += StrFormat("task_arena_chunks:    %llu\n",
                   (unsigned long long)machine.task_arena_stats().chunks);

  // Per-CPU run-queue lock rows: only for per-CPU-queue schedulers (every
  // lock counter is identically zero under a global-lock scheduler).
  if (s.percpu_lock_acquisitions > 0) {
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

std::string RenderSupervisionReport(const SupervisionStats& stats) {
  std::string out = "--- supervision ---\n";
  AppendCounterLines(&out, "", stats, kSupervisionCounters);
  return out;
}

}  // namespace elsc
