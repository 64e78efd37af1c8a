// Task behaviors: how workloads describe what a task does.
//
// A behavior yields *segments*: a number of CPU cycles of work followed by an
// action (block on a wait queue, yield the processor, exit, or immediately
// request another segment). The Machine runtime executes segments on
// simulated CPUs, handling quantum expiry and preemption transparently — a
// preempted task resumes the remainder of its segment when next scheduled.

#ifndef SRC_KERNEL_BEHAVIOR_H_
#define SRC_KERNEL_BEHAVIOR_H_

#include "src/base/inline_function.h"
#include "src/base/time_units.h"

namespace elsc {

class Machine;
class WaitQueue;
struct Task;

// What a task does once its segment's CPU work completes.
enum class SegmentAfter {
  kBlock,     // Sleep on `wait_on` until woken.
  kSleep,     // Sleep for a fixed simulated duration (timer wake), e.g. I/O.
  kYield,     // sys_sched_yield(): set SCHED_YIELD, reenter the scheduler.
  kExit,      // Terminate the task.
  kRunAgain,  // Ask the behavior for the next segment without rescheduling.
};

struct Segment {
  Cycles cycles = 0;
  SegmentAfter after = SegmentAfter::kExit;
  WaitQueue* wait_on = nullptr;  // Required iff after == kBlock.
  Cycles sleep_for = 0;          // Used iff after == kSleep.
  // Optional deadline for kBlock (the SO_RCVTIMEO/SO_SNDTIMEO analog): if
  // nonzero and no wake-up arrives within this many cycles, the task is woken
  // with Task::block_timed_out set so the behavior can observe the timeout
  // (see ConsumeReadTimeout in src/net/socket_ops.h). 0 = block forever.
  Cycles block_timeout = 0;
  // Optional re-check evaluated at the moment the task would go to sleep
  // (the kernel's add_wait_queue / re-test-condition / schedule() idiom):
  // if it returns false, the condition the task was about to wait for has
  // already been satisfied, the sleep is skipped, and the task re-enters the
  // scheduler runnable. Prevents lost wake-ups between a failed non-blocking
  // operation and the block taking effect.
  // InlineFunction rather than std::function: the predicate travels by value
  // (behavior → segment → task) on the block hot path, and the small-buffer
  // type moves trivially instead of via indirect manager calls.
  InlineFunction<bool> still_blocked;

  static Segment Block(Cycles cycles, WaitQueue* wq, InlineFunction<bool> still_blocked = {}) {
    Segment seg{cycles, SegmentAfter::kBlock, wq, 0, 0, {}};
    seg.still_blocked = std::move(still_blocked);
    return seg;
  }
  // Block with a deadline: wake with Task::block_timed_out set if no regular
  // wake-up arrives within `timeout` cycles (0 = block forever, same as
  // Block()).
  static Segment BlockFor(Cycles cycles, WaitQueue* wq, Cycles timeout,
                          InlineFunction<bool> still_blocked = {}) {
    Segment seg{cycles, SegmentAfter::kBlock, wq, 0, timeout, {}};
    seg.still_blocked = std::move(still_blocked);
    return seg;
  }
  static Segment Sleep(Cycles cycles, Cycles duration) {
    return Segment{cycles, SegmentAfter::kSleep, nullptr, duration, 0, {}};
  }
  static Segment Yield(Cycles cycles) {
    return Segment{cycles, SegmentAfter::kYield, nullptr, 0, 0, {}};
  }
  static Segment Exit(Cycles cycles) {
    return Segment{cycles, SegmentAfter::kExit, nullptr, 0, 0, {}};
  }
  static Segment RunAgain(Cycles cycles) {
    return Segment{cycles, SegmentAfter::kRunAgain, nullptr, 0, 0, {}};
  }
};

class TaskBehavior {
 public:
  virtual ~TaskBehavior() = default;

  // Called when `task` needs a new segment: at first dispatch, after a block
  // completes (the task was woken and re-scheduled), after a yield, or after
  // a kRunAgain segment finishes. Runs at simulated time machine.Now().
  virtual Segment NextSegment(Machine& machine, Task& task) = 0;

  // Called when the task exits. Optional.
  virtual void OnExit(Machine& machine, Task& task) {
    (void)machine;
    (void)task;
  }
};

}  // namespace elsc

#endif  // SRC_KERNEL_BEHAVIOR_H_
