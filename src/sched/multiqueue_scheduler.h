// A per-CPU multi-queue scheduler — the second alternative sketched in the
// paper's future-work section (§8): "perhaps a multi-priority-queue solution
// would be more beneficial to help the scheduler scale to multiple
// processors".
//
// Each CPU owns a private run queue (an unsorted list searched with the
// stock goodness() rules, so behaviour stays comparable); wakeups enqueue on
// the task's last CPU, preserving affinity by construction. A CPU whose own
// queue has nothing schedulable steals the best candidate from the longest
// peer queue. Because cross-CPU interference is limited to stealing, this
// design does not need the global run-queue lock at all — the Machine's
// lock-serialization model is bypassed (uses_global_lock() == false),
// which is precisely the scalability angle the paper hints at: "Can we
// construct a scheduler that spends less time waiting for spin locks?"
//
// Task::rq_slot holds the CPU whose queue lists the task, or -1 while it is
// on none.

#ifndef SRC_SCHED_MULTIQUEUE_SCHEDULER_H_
#define SRC_SCHED_MULTIQUEUE_SCHEDULER_H_

#include <vector>

#include "src/base/bitmap.h"
#include "src/base/intrusive_list.h"
#include "src/sched/scheduler.h"

namespace elsc {

class MultiQueueScheduler : public Scheduler {
 public:
  MultiQueueScheduler(const CostModel& cost_model, TaskList* all_tasks,
                      const SchedulerConfig& config);

  const char* name() const override { return "multiqueue"; }

  bool uses_global_lock() const override { return false; }

  void AddToRunQueue(Task* task) override;
  void DelFromRunQueue(Task* task) override;
  void MoveFirstRunQueue(Task* task) override;
  void MoveLastRunQueue(Task* task) override;

  Task* Schedule(int this_cpu, Task* prev, CostMeter& meter) override;

  void CheckInvariants() const override;

  // Per-CPU queue rendering with static goodness labels.
  std::string DebugString() const override;

  size_t QueueDepth(int cpu) const { return sizes_[static_cast<size_t>(cpu)]; }
  uint64_t steals() const { return steals_; }

 private:
  struct PerCpu {
    ListHead head;
  };

  // Queue a task belongs to; wakeups follow the task's last processor.
  int HomeQueue(const Task& task) const;

  // Best schedulable candidate in queue `q` from `this_cpu`'s viewpoint, or
  // nullptr. Returns the stock scheduler's pick rule (max goodness, front
  // wins ties); sets *best_weight.
  Task* SearchQueue(int q, int this_cpu, const MmStruct* this_mm, CostMeter& meter,
                    long* best_weight) const;

  std::vector<PerCpu> queues_;
  std::vector<size_t> sizes_;
  // Bit q set iff queue q is non-empty: lets the steal path skip the
  // longest-first sort entirely when every peer queue is empty (the common
  // case on lightly loaded machines), without changing which queue is
  // visited when work does exist.
  OccupancyBitmap nonempty_;
  // Scratch for the longest-first peer ordering, reused across Schedule()
  // calls to avoid a heap allocation per steal attempt. Built and sorted
  // exactly as the per-call vector was, so the visit order is unchanged.
  std::vector<int> steal_order_;
  uint64_t steals_ = 0;
};

}  // namespace elsc

#endif  // SRC_SCHED_MULTIQUEUE_SCHEDULER_H_
