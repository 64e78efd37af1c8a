// A heap-based scheduler — the alternative design sketched in the paper's
// future-work section (§8): "sorting tasks by static goodness within heaps
// ... One could choose the absolute best task available simply by examining
// the top of each heap."
//
// This implementation keeps a single global binary max-heap of runnable
// tasks keyed by static goodness (real-time tasks key above all others, as
// goodness() mandates). Selection pops the best task not running on another
// CPU; insertion and removal are O(log n). It deliberately ignores the
// dynamic affinity/mm bonuses — that is the design's documented trade-off,
// which the ablation benchmarks quantify against ELSC (whose bounded in-list
// search *does* apply the bonuses).
//
// Yield handling follows the stock scheduler's spirit: a yielded task is
// (re)inserted with key 0, so anything runnable beats it, but if it reaches
// the top it simply runs again — no whole-system recalculation storm.
//
// Task::rq_slot holds the task's position in the heap, or -1 while it is
// out of the heap (running, or off the run queue); it makes removal of an
// arbitrary task O(log n).

#ifndef SRC_SCHED_HEAP_SCHEDULER_H_
#define SRC_SCHED_HEAP_SCHEDULER_H_

#include <vector>

#include "src/sched/scheduler.h"

namespace elsc {

class HeapScheduler : public Scheduler {
 public:
  HeapScheduler(const CostModel& cost_model, TaskList* all_tasks, const SchedulerConfig& config)
      : Scheduler(cost_model, all_tasks, config) {}

  const char* name() const override { return "heap"; }

  void AddToRunQueue(Task* task) override;
  void DelFromRunQueue(Task* task) override;
  // Tie-biasing has no meaning inside a heap; these are accepted no-ops.
  void MoveFirstRunQueue(Task* task) override;
  void MoveLastRunQueue(Task* task) override;

  Task* Schedule(int this_cpu, Task* prev, CostMeter& meter) override;

  void CheckInvariants() const override;

  size_t heap_size() const { return heap_.size(); }

 private:
  // Static-goodness key; the heap is ordered by it.
  static long KeyOf(const Task& p);

  void HeapPush(Task* task, CostMeter* meter, long key_penalty = 0);
  Task* HeapPopAt(size_t index, CostMeter* meter);
  void SiftUp(size_t index);
  void SiftDown(size_t index);
  void ChargeHeapOp(CostMeter* meter) const;

  // Re-keys every resident after a counter recalculation and restores the
  // heap property.
  void RebuildHeap();

  std::vector<Task*> heap_;
  std::vector<long> keys_;  // keys_[i] caches KeyOf(*heap_[i]) at insert time.
};

}  // namespace elsc

#endif  // SRC_SCHED_HEAP_SCHEDULER_H_
