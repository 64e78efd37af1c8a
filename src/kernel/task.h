// The task structure — the basic execution context of the simulated kernel.
//
// The first block of fields mirrors Table 1 of the paper (the fields of the
// Linux 2.3.99-pre4 task_struct that are relevant to scheduling); the
// schedulers manipulate them directly, exactly as kernel code does. The
// remaining fields are simulation bookkeeping used by the Machine runtime and
// the statistics collectors.

#ifndef SRC_KERNEL_TASK_H_
#define SRC_KERNEL_TASK_H_

#include <cstdint>
#include <string>

#include "src/base/intrusive_list.h"
#include "src/base/time_units.h"
#include "src/kernel/behavior.h"
#include "src/kernel/mm.h"
#include "src/kernel/policy.h"

namespace elsc {

class WaitQueue;

// Task states, mirroring TASK_* in <linux/sched.h>. kRunning means
// *runnable* (on the run queue or on a CPU), not necessarily executing.
enum class TaskState {
  kRunning,          // TASK_RUNNING
  kInterruptible,    // TASK_INTERRUPTIBLE (blocked, wakeable)
  kUninterruptible,  // TASK_UNINTERRUPTIBLE
  kStopped,          // TASK_STOPPED
  kZombie,           // TASK_ZOMBIE (exited)
};

const char* TaskStateName(TaskState state);

// Priority constants (paper §3.1): SCHED_OTHER priority is 1..40 with a
// default of 20; counter ranges from 0 to twice the priority and is measured
// in 10 ms ticks. Real-time priority is 0..99 in a separate field.
inline constexpr long kMinPriority = 1;
inline constexpr long kMaxPriority = 40;
inline constexpr long kDefaultPriority = 20;
inline constexpr long kMaxRtPriority = 99;

// Per-task statistics accumulated by the Machine runtime.
struct TaskStats {
  uint64_t times_scheduled = 0;     // Dispatches onto a CPU.
  uint64_t migrations = 0;          // Dispatches onto a different CPU than last time.
  uint64_t yields = 0;
  uint64_t preemptions = 0;         // Quantum expiry or higher-priority preemption.
  Cycles cpu_cycles = 0;            // Useful work executed.
  Cycles wait_cycles = 0;           // Time spent runnable but not executing.
};

struct Task {
  // Field order is hot-first: schedulers touch the Table-1 block (offsets
  // 0-63) plus the run-queue slot and pid on every insert/remove and on the
  // picks that read a Task; identity, wait-queue, and statistics fields are
  // only touched on slow paths (blocking, exit, reporting) and live at the
  // tail. Within that order, the 4-byte and 1-byte fields are grouped so the
  // only padding is the 6 bytes after the two flags (and 4 inside Segment):
  // every Volano connection pays for four Tasks.

  // ---- Table 1: scheduler-relevant task_struct fields (hot) ----
  TaskState state = TaskState::kRunning;   // volatile long state
  uint32_t policy = kSchedOther;           // unsigned long policy (+ SCHED_YIELD bit)
  long counter = kDefaultPriority;         // long counter (quantum remaining, ticks)
  long priority = kDefaultPriority;        // long priority (1..40)
  long rt_priority = 0;                    // real-time priority (0..99)
  MmStruct* mm = nullptr;                  // struct mm_struct *mm
  ListHead run_list;                       // struct list_head run_list
  int has_cpu = 0;                         // 1 while executing on a processor
  int processor = 0;                       // CPU the task last ran on / runs on

  // ---- Run-queue bookkeeping (hot) ----
  // Where the scheduler holding the task filed it, or -1 while the task is
  // in none of its structures. What the number means belongs to that
  // scheduler; each backend's header says what it stores here.
  int rq_slot = -1;
  // Used by goodness() ties and trace records on the dispatch path.
  int pid = 0;
  // Dispatch stamp: the value of its CPU's dispatch sequence when this task
  // last started running there. Used by affinity-decay policies to judge how
  // stale the task's cache footprint is (paper §8: "Do we care about
  // processor affinity after many other tasks have run?").
  uint64_t last_run_stamp = 0;

  // ---- Machine runtime state (warm: touched per segment, not per examine) ----
  // The behavior's current segment, as NextSegment() returned it, except
  // that segment.cycles holds the CPU work still to do: a preempted task
  // resumes the remainder.
  Segment segment;
  // Incremented on every transition into kInterruptible; block-timeout timer
  // events capture it so a stale deadline cannot wake a later, unrelated
  // sleep of the same task.
  uint64_t sleep_generation = 0;
  // When the task last became runnable: wait-time accounting and the
  // auditor's starvation check.
  Cycles became_runnable_at = 0;
  bool segment_active = false;
  // Set when a timed block's deadline fired before a regular wake-up (the
  // ETIMEDOUT analog); cleared when the next block is entered or when the
  // behavior consumes it (ConsumeReadTimeout / ConsumeWriteTimeout).
  bool block_timed_out = false;

  // ---- Cold: identity, kernel bookkeeping, workload hook, statistics ----
  std::string name;
  ListHead task_list_node;   // Membership in the global task list (for_each_task).
  ListHead wait_node;        // Membership in a wait queue while blocked.
  WaitQueue* waiting_on = nullptr;
  TaskBehavior* behavior = nullptr;  // Owned by the workload, not the task.

  TaskStats stats;

  // Kernel membership tests. Mirrors task_on_runqueue(): a task is considered
  // on the run queue iff run_list.next != NULL. The ELSC scheduler
  // additionally uses run_list.prev == NULL to mean "on the run queue but not
  // currently present in any table list" (it is executing; paper footnote 3).
  bool OnRunQueue() const { return run_list.next != nullptr; }
  bool InRunQueueList() const { return run_list.prev != nullptr; }

  bool IsRealtime() const { return PolicyIsRealtime(policy); }
  bool HasYielded() const { return PolicyHasYield(policy); }
  bool IsIdleTask() const { return pid == 0; }
};

}  // namespace elsc

#endif  // SRC_KERNEL_TASK_H_
