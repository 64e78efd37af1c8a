// The ELSC scheduler (paper §5) — the paper's primary contribution.
//
// A table-based scheduler that keeps the run queue sorted by static goodness
// (priority + counter) so that task selection examines a small, bounded
// number of candidates instead of the whole run queue:
//
//  * 30 doubly-linked lists (20 SCHED_OTHER + 10 real-time); `top` points at
//    the highest list holding a schedulable task, `next_top` at the highest
//    list holding exhausted tasks that a counter recalculation would revive.
//  * The search examines at most (ncpus/2 + 5) tasks in the top populated
//    list, applying the same dynamic bonuses as goodness() (CPU affinity,
//    shared mm); on uniprocessor kernels it stops at the first mm match.
//  * Running tasks are removed from their list but remain logically "on the
//    run queue" (run_list.prev == NULL marker, paper footnote 3); the
//    previous task is re-inserted at the start of each schedule() call.
//  * A task that yielded is chosen only if nothing else in the list is
//    schedulable — and re-running it replaces the stock scheduler's
//    pathological whole-system counter recalculation on yield (Figure 2).

#ifndef SRC_SCHED_ELSC_SCHEDULER_H_
#define SRC_SCHED_ELSC_SCHEDULER_H_

#include "src/sched/elsc_runqueue.h"
#include "src/sched/scheduler.h"

namespace elsc {

struct ElscOptions {
  ElscTableConfig table;
  // The search limit is num_cpus / 2 + search_limit_extra (paper: "half the
  // number of processors in the system plus five").
  int search_limit_extra = 5;
  // Affinity decay (an answer to the paper's future-work question "do we
  // care about processor affinity after many other tasks have run on the
  // given processor?"): when nonzero, the +15 affinity bonus applies only if
  // at most this many other dispatches have happened on the CPU since the
  // task last ran there. 0 = paper behaviour (bonus never decays).
  uint64_t affinity_decay_window = 0;
};

class ElscScheduler : public Scheduler {
 public:
  ElscScheduler(const CostModel& cost_model, TaskList* all_tasks, const SchedulerConfig& config,
                const ElscOptions& options = ElscOptions{});

  const char* name() const override { return "elsc"; }

  void AddToRunQueue(Task* task) override;
  void DelFromRunQueue(Task* task) override;
  void MoveFirstRunQueue(Task* task) override;
  void MoveLastRunQueue(Task* task) override;

  Task* Schedule(int this_cpu, Task* prev, CostMeter& meter) override;

  void CheckInvariants() const override;

  // Figure 1b: the table of lists, highest first, with each resident task's
  // static goodness; `top`/`next_top` markers included.
  std::string DebugString() const override;

  const ElscRunQueue& table() const { return table_; }
  int search_limit() const { return search_limit_; }

 private:
  // Searches one list; returns the chosen task or nullptr. Sets
  // `descend` when the caller should try the next populated list.
  Task* SearchList(int index, int this_cpu, const Task* prev, CostMeter& meter, bool* descend);

  // Marks a picked task as running: out of its list but still on the run
  // queue (prev pointer nulled, next kept non-null).
  void DetachForRun(Task* task);

  ElscRunQueue table_;
  int search_limit_;
  uint64_t affinity_decay_window_;
};

}  // namespace elsc

#endif  // SRC_SCHED_ELSC_SCHEDULER_H_
