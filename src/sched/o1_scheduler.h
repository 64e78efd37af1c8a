// The O(1) scheduler — the design that actually replaced this paper's
// lineage in Linux 2.6 (Ingo Molnar's scheduler, 2.5.2 onward).
//
// Structure, per CPU:
//  * two prio_arrays (active / expired), each holding 140 priority lists —
//    indices 0..99 for real-time priorities (higher rt_priority = lower
//    index) and 100..139 for SCHED_OTHER (higher `priority` = lower index) —
//    plus a 140-entry occupancy bitmap (src/base/bitmap.h);
//  * picking is O(1): find-first-set on the active bitmap, take the front of
//    that list. No goodness() scan, no recalculation loop — a task whose
//    timeslice expires is refilled and moved to the *expired* array, and when
//    the active array drains the two arrays swap (one epoch ends).
//
// Cross-CPU behaviour is deterministic load balancing: an idle CPU pulls
// from the busiest peer (pull_task), and every kBalanceInterval-th pick on a
// busy CPU runs a periodic balance that pulls one task when the imbalance
// exceeds one task. Peers are ranked by queue depth with ascending-CPU-index
// tie-breaks, so decisions are bit-identical at any ELSC_BENCH_JOBS.
//
// Locking: uses_global_lock() == false. Each pick takes only its own CPU's
// run-queue lock; a pull additionally reports the source CPU's lock through
// CostMeter::ChargeRemoteLock, and the Machine applies those double-locks in
// ascending CPU index (the deadlock-avoidance order) with hold/wait cycle
// accounting per CPU.
//
// Task::rq_slot holds the list a task sits in, encoded by EncodeIndex()
// from its CPU, array slot and priority index, or -1 while it is on none.

#ifndef SRC_SCHED_O1_SCHEDULER_H_
#define SRC_SCHED_O1_SCHEDULER_H_

#include <vector>

#include "src/base/bitmap.h"
#include "src/base/intrusive_list.h"
#include "src/sched/scheduler.h"

namespace elsc {

class O1Scheduler : public Scheduler {
 public:
  // 100 real-time levels + 40 SCHED_OTHER levels, lower index = more urgent.
  static constexpr int kPrioLevels = 140;
  static constexpr int kNumArrays = 2;  // active + expired
  // Periodic load balance runs every this-many picks on a busy CPU.
  static constexpr uint64_t kBalanceInterval = 64;

  O1Scheduler(const CostModel& cost_model, TaskList* all_tasks, const SchedulerConfig& config);

  const char* name() const override { return "o1"; }

  bool uses_global_lock() const override { return false; }

  void AddToRunQueue(Task* task) override;
  void DelFromRunQueue(Task* task) override;
  void MoveFirstRunQueue(Task* task) override;
  void MoveLastRunQueue(Task* task) override;

  Task* Schedule(int this_cpu, Task* prev, CostMeter& meter) override;

  // Wakeup preemption, 2.6-style: only the woken task's own queue CPU is a
  // preemption target (resched_task(task_rq(p)->curr)), decided by priority
  // index alone — no goodness arithmetic.
  long PreemptionDelta(const Task& candidate, const Task& running, int cpu) const override;

  void CheckInvariants() const override;
  std::string DebugString() const override;

  // ---- Introspection (auditor shadow model + tests) ----
  // Priority index of a task: 0..99 real-time (99 - rt_priority), 100..139
  // SCHED_OTHER (100 + (kMaxPriority - priority)). Lower = more urgent.
  static int PrioIndexOf(const Task& task);
  // Which physical array slot (0/1) is the active one for `cpu`.
  int active_slot(int cpu) const { return queues_[static_cast<size_t>(cpu)].active; }
  // The list at (cpu, physical slot, priority index).
  const ListHead* ListAt(int cpu, int slot, int prio) const {
    return &queues_[static_cast<size_t>(cpu)].arrays[slot].lists[prio];
  }
  // Runnable tasks filed on `cpu` (both arrays; includes the CPU's current).
  size_t QueueDepth(int cpu) const {
    const RunQueue& rq = queues_[static_cast<size_t>(cpu)];
    return rq.arrays[0].count + rq.arrays[1].count;
  }

 private:
  struct PrioArray {
    ListHead lists[kPrioLevels];
    OccupancyBitmap bitmap;  // Bit p set iff lists[p] is non-empty.
    size_t count = 0;
  };
  struct RunQueue {
    PrioArray arrays[kNumArrays];
    int active = 0;      // Physical slot of the active array.
    uint64_t picks = 0;  // Schedule() entries; drives the balance cadence.
  };

  // Task::rq_slot encoding: (cpu * 2 + physical slot) * 140 + prio index.
  static int EncodeIndex(int cpu, int slot, int prio) {
    return (cpu * kNumArrays + slot) * kPrioLevels + prio;
  }
  static void DecodeIndex(int index, int* cpu, int* slot, int* prio) {
    *prio = index % kPrioLevels;
    const int rest = index / kPrioLevels;
    *slot = rest % kNumArrays;
    *cpu = rest / kNumArrays;
  }

  int HomeCpu(const Task& task) const;
  // Raw enqueue/dequeue: maintain list + bitmap + array count (not
  // nr_running_, which only Add/Del adjust).
  void Enqueue(Task* task, int cpu, int slot, bool tail);
  void Dequeue(Task* task);
  // First pickable task in `arr` (front of the lowest populated list,
  // skipping tasks executing elsewhere), or nullptr.
  Task* FindFirst(PrioArray& arr, const Task* prev, CostMeter& meter) const;
  // One balance attempt for `this_cpu`: choose the busiest peer (idle pulls
  // need depth > 1; periodic pulls need depth > own + 1), double-lock it and
  // pull one task into this CPU's active array. Returns true if a task moved.
  bool LoadBalance(int this_cpu, bool idle, CostMeter& meter);
  // Most-urgent pullable task in `src`'s queue (expired array first), or
  // nullptr. Dequeues the task; the caller re-enqueues it at home.
  Task* PullTask(int src, CostMeter& meter);

  std::vector<RunQueue> queues_;
};

}  // namespace elsc

#endif  // SRC_SCHED_O1_SCHEDULER_H_
