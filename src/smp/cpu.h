// Per-CPU state for the simulated SMP machine.

#ifndef SRC_SMP_CPU_H_
#define SRC_SMP_CPU_H_

#include <cstdint>

#include "src/base/time_units.h"
#include "src/kernel/task.h"
#include "src/sim/event_queue.h"

namespace elsc {

struct CpuStats {
  Cycles busy_cycles = 0;      // Executing task work (incl. switch overhead).
  Cycles idle_cycles = 0;      // No runnable task.
  Cycles sched_cycles = 0;     // Inside schedule() (incl. lock wait).
  uint64_t dispatches = 0;     // Tasks placed on this CPU.
  uint64_t context_switches = 0;
  uint64_t idle_periods = 0;
};

struct Cpu {
  int id = 0;

  // The task currently executing; nullptr means the idle task.
  Task* current = nullptr;

  // True from the moment this CPU requests schedule() until the pick is
  // dispatched (covers run-queue lock wait + the pick itself).
  bool schedule_pending = false;
  Cycles schedule_requested_at = 0;

  // A preemption arrived while no segment event was live (e.g. during a
  // behavior callback); honored as soon as the next segment is installed.
  bool need_resched = false;

  // In-flight segment-end event. 0 when none is live.
  EventId segment_event = 0;
  // Monotonic generation; stale segment-end events are ignored.
  uint64_t dispatch_generation = 0;

  // Bookkeeping for the live segment.
  Cycles segment_started_at = 0;  // When the dispatch began.
  Cycles segment_overhead = 0;    // Context-switch + migration cycles before useful work.

  // When the current idle period began (valid while current == nullptr).
  Cycles idle_since = 0;

  // Fault injection: a stalled CPU takes no ticks, installs no segments and
  // defers preemption requests until Machine::ResumeCpu() rejoins it.
  bool stalled = false;

  CpuStats stats;

  bool IsIdle() const { return current == nullptr; }
};

}  // namespace elsc

#endif  // SRC_SMP_CPU_H_
