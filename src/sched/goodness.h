// The goodness() heuristic, ported from Linux 2.3.99-pre4 kernel/sched.c
// (paper §3.3.1).
//
// For SCHED_FIFO / SCHED_RR tasks goodness is 1000 + rt_priority, putting all
// real-time tasks above every SCHED_OTHER task. For SCHED_OTHER tasks the
// value is counter + priority (zero counter => 0, meaning "runnable but
// quantum exhausted"), plus dynamic bonuses: +15 if the task last ran on the
// deciding CPU (SMP kernels only) and +1 if it shares an address space with
// the previous task.

#ifndef SRC_SCHED_GOODNESS_H_
#define SRC_SCHED_GOODNESS_H_

#include "src/kernel/mm.h"
#include "src/kernel/policy.h"
#include "src/kernel/task.h"

namespace elsc {

// PROC_CHANGE_PENALTY in the kernel source: the processor-affinity bonus.
inline constexpr long kProcChangePenalty = 15;
// Bonus for sharing an address space with the previous task.
inline constexpr long kSameMmBonus = 1;
// Base weight for real-time tasks.
inline constexpr long kRealtimeBase = 1000;
// Weight reported for a task that cannot be sensibly chosen.
inline constexpr long kUnschedulableWeight = -1000;

// These are defined inline: Goodness() runs on every pick, as
// PrevGoodness() for the outgoing task and once per examined task in the
// multiqueue search, and on every wakeup through PreemptionGoodnessDelta();
// an out-of-line call costs more than the handful of adds it wraps. The
// stock scheduler's scan reads cached keys instead (LinuxScheduler::ScanSlot
// folds the same arithmetic). The arithmetic is byte-for-byte the same as
// the kernel's.

// Full goodness, with dynamic bonuses. `smp` selects whether the affinity
// bonus applies (UP kernels compile it out).
inline long Goodness(const Task& p, int this_cpu, const MmStruct* this_mm, bool smp) {
  // Fast path: a policy word of exactly 0 is plain SCHED_OTHER with no
  // SCHED_YIELD bit — the overwhelmingly common case in every workload. The
  // bonus selects compile to conditional moves, so the only data-dependent
  // branch left is the exhausted-quantum test.
  if (__builtin_expect(p.policy == kSchedOther, true)) {
    const long weight = p.counter;
    if (weight == 0) {
      return 0;
    }
    return weight + p.priority + ((smp && p.processor == this_cpu) ? kProcChangePenalty : 0) +
           ((p.mm == this_mm || p.mm == nullptr) ? kSameMmBonus : 0);
  }
  // A task that just yielded should not win; the stock kernel reaches this
  // via prev_goodness() for the previous task, and other runnable tasks
  // cannot carry the bit. Defensive parity with kernel behaviour.
  if (PolicyHasYield(p.policy)) {
    return -1;
  }
  if (PolicyIsRealtime(p.policy)) {
    return kRealtimeBase + p.rt_priority;
  }
  long weight = p.counter;
  if (weight == 0) {
    // Runnable, but its quantum is used up.
    return 0;
  }
  if (smp && p.processor == this_cpu) {
    weight += kProcChangePenalty;
  }
  // Kernel threads (no mm) share the bonus: p->mm == this_mm || !p->mm.
  if (p.mm == this_mm || p.mm == nullptr) {
    weight += kSameMmBonus;
  }
  weight += p.priority;
  return weight;
}

// prev_goodness(): evaluation of the previous task. If the task has yielded,
// clears the SCHED_YIELD bit and returns 0 (so any other runnable task beats
// it), exactly as the stock kernel does.
inline long PrevGoodness(Task& p, int this_cpu, const MmStruct* this_mm, bool smp) {
  if (PolicyHasYield(p.policy)) {
    p.policy &= ~kSchedYield;
    return 0;
  }
  return Goodness(p, this_cpu, this_mm, smp);
}

// The static part of goodness (paper §5): counter + priority for SCHED_OTHER
// tasks; the ELSC table is sorted by this. Real-time tasks are handled by a
// separate table region, so this is only meaningful for SCHED_OTHER.
inline long StaticGoodness(const Task& p) { return p.counter + p.priority; }

// preemption_goodness(): how much better `p` would be than `running` on
// `cpu`; positive means preempt (used by reschedule_idle()).
inline long PreemptionGoodnessDelta(const Task& p, const Task& running, int cpu, bool smp) {
  return Goodness(p, cpu, running.mm, smp) - Goodness(running, cpu, running.mm, smp);
}

}  // namespace elsc

#endif  // SRC_SCHED_GOODNESS_H_
