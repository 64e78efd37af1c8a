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

#include "src/base/inline_function.h"
#include "src/base/intrusive_list.h"
#include "src/base/time_units.h"
#include "src/kernel/mm.h"
#include "src/kernel/policy.h"

namespace elsc {

class TaskBehavior;
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
  uint64_t voluntary_switches = 0;  // Blocks + exits.
  uint64_t yields = 0;
  uint64_t preemptions = 0;         // Quantum expiry or higher-priority preemption.
  Cycles cpu_cycles = 0;            // Useful work executed.
  Cycles wait_cycles = 0;           // Time spent runnable but not executing.
};

struct Task {
  // Field order is hot-first: schedulers touch the Table-1 block (offsets
  // 0-63) plus the run-queue bookkeeping (the second cache line) on every
  // examine/insert/remove; identity, wait-queue, and statistics fields are
  // only touched on slow paths (blocking, exit, reporting) and live at the
  // tail. Within that order, the 4-byte and 1-byte fields are grouped so the
  // struct carries no padding beyond the 2 bytes that round it to 8: every
  // Volano connection pays for four Tasks.

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
  // ELSC: which table list the task currently sits in (-1 when not in any
  // list). Lets removal avoid recomputing the index from fields that may
  // have changed.
  int run_list_index = -1;
  // HeapScheduler: the task's slot in the run-queue heap (-1 when not in the
  // heap). Enables O(log n) removal of arbitrary tasks.
  int heap_index = -1;
  // LinuxScheduler: the task's slot in the scan array of the run queue (-1
  // when off the queue). The slot caches the task's goodness inputs, or
  // marks it held while a CPU runs it; it enables O(1) swap-pop removal.
  // See LinuxScheduler::ScanSlot for the held model.
  int scan_slot = -1;
  // Used by goodness() ties and trace records on the dispatch path.
  int pid = 0;
  // Dispatch stamp: the value of its CPU's dispatch sequence when this task
  // last started running there. Used by affinity-decay policies to judge how
  // stale the task's cache footprint is (paper §8: "Do we care about
  // processor affinity after many other tasks have run?").
  uint64_t last_run_stamp = 0;

  // ---- Machine runtime state (warm: touched per segment, not per examine) ----
  // Remaining CPU work in the task's current behavior segment. A preempted
  // task resumes the same segment.
  Cycles segment_remaining = 0;
  WaitQueue* pending_wait = nullptr;
  Cycles pending_sleep = 0;
  // Deadline for the pending kBlock (0 = none); see Segment::BlockFor.
  Cycles pending_block_timeout = 0;
  // Incremented on every transition into kInterruptible; block-timeout timer
  // events capture it so a stale deadline cannot wake a later, unrelated
  // sleep of the same task.
  uint64_t sleep_generation = 0;
  // When the task last became runnable: wait-time accounting and the
  // auditor's starvation check.
  Cycles became_runnable_at = 0;
  // What to do when the segment completes (indices into SegmentAfter; the
  // Machine caches the behavior's answer here).
  int pending_after = 0;
  // Outstanding engine timer-wake events that captured this task's pointer;
  // the arena must not recycle the slot while any are pending.
  int pending_timer_wakes = 0;
  // This task's slot in Machine::all_tasks() (creation-order registry);
  // lets opt-in zombie recycling unregister in O(1).
  int registry_slot = -1;
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
  InlineFunction<bool> pending_block_check;

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
