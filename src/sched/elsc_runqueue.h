// The ELSC run-queue table (paper §5.1, Figure 1b).
//
// An array of doubly-linked lists, each holding tasks within a static-
// goodness range. The top ten lists hold real-time tasks indexed by
// rt_priority/10; the remaining lists hold SCHED_OTHER tasks indexed by
// (counter + priority) / 4. Tasks with a non-zero counter are inserted at the
// front of their list; tasks with an exhausted (zero) counter are indexed by
// a *predicted* post-recalculation counter and appended at the tail, so they
// stay out of the scheduler's way until the global recalculation occurs —
// at which point they are already in the right list.
//
// `top` tracks the highest-priority list containing a schedulable task
// (non-zero counter, or any real-time task); `next_top` tracks the highest
// list containing exhausted tasks that will become schedulable after a
// counter recalculation.
//
// Task::rq_slot holds the index of the list a task sits in, or kNoList
// while it is in none (an executing task is detached, paper footnote 3),
// so removal never recomputes the index from fields that may have changed.

#ifndef SRC_SCHED_ELSC_RUNQUEUE_H_
#define SRC_SCHED_ELSC_RUNQUEUE_H_

#include <cstddef>
#include <vector>

#include "src/base/bitmap.h"
#include "src/base/intrusive_list.h"
#include "src/kernel/task.h"

namespace elsc {

struct ElscTableConfig {
  // Number of lists for SCHED_OTHER tasks (paper: 20) and real-time tasks
  // (paper: 10), for a total of 30.
  int num_other_lists = 20;
  int num_rt_lists = 10;
  // Static goodness divisor for SCHED_OTHER bucketing (paper: 4).
  long goodness_divisor = 4;

  int total_lists() const { return num_other_lists + num_rt_lists; }
};

class ElscRunQueue {
 public:
  static constexpr int kNoList = -1;

  explicit ElscRunQueue(const ElscTableConfig& config = ElscTableConfig{});

  ElscRunQueue(const ElscRunQueue&) = delete;
  ElscRunQueue& operator=(const ElscRunQueue&) = delete;

  const ElscTableConfig& table_config() const { return config_; }

  // List index a task belongs in. For zero-counter SCHED_OTHER tasks this
  // uses the predicted post-recalculation counter (counter/2 + priority,
  // i.e. priority).
  int IndexFor(const Task& task) const;

  // Inserts a task into its list: front if schedulable now, tail (predicted
  // index) if its counter is exhausted. Updates top/next_top.
  void Insert(Task* task);

  // Unlinks a task from whatever list it is in. Updates top/next_top.
  void Remove(Task* task);

  // Moves a task to the front/back of its *section* (non-zero-counter tasks
  // precede zero-counter tasks within a list; paper §5.1).
  void MoveFirstInSection(Task* task);
  void MoveLastInSection(Task* task);

  // Re-files a task whose indexing fields (counter/priority/policy) changed.
  void Reindex(Task* task);

  int top() const { return top_; }
  int next_top() const { return next_top_; }

  bool ListEmptyAt(int index) const { return ListEmpty(&lists_[index]); }
  size_t ListSizeAt(int index) const { return sizes_[index]; }
  size_t TotalSize() const { return total_; }

  // True if list `index` holds at least one task schedulable without a
  // recalculation: any real-time task, or a SCHED_OTHER task with counter>0.
  // O(1): front/back insertion discipline keeps non-zero tasks at the head.
  bool HasActiveTask(int index) const;
  // True if list `index` holds at least one exhausted (counter==0) task.
  bool HasExhaustedTask(int index) const;

  // Called after the global counter recalculation: every formerly-exhausted
  // task now has its predicted counter, so the lists are already correct;
  // only the top/next_top pointers need refreshing.
  void OnCountersRecalculated();

  ListHead* list_head(int index) { return &lists_[index]; }
  const ListHead* list_head(int index) const { return &lists_[index]; }

  bool IsRtList(int index) const { return index >= config_.num_other_lists; }

  // First task of a list, or nullptr. (Front = most recently inserted
  // schedulable task.)
  Task* Front(int index) const;
  Task* Back(int index) const;

  // Highest populated list at or below `below`, or kNoList.
  int NextPopulatedList(int below) const;

  // Validates structural invariants (including that the occupancy bitmaps
  // agree with actual list contents); aborts on violation.
  void CheckInvariants(size_t expected_in_lists) const;

 private:
  // Refreshes list `index`'s active/exhausted/occupied bits from its O(1)
  // front/back state, then re-derives top/next_top with find-last-set.
  void UpdateBitsAndTops(int index);

  ElscTableConfig config_;
  std::vector<ListHead> lists_;
  std::vector<size_t> sizes_;
  size_t total_ = 0;
  int top_ = kNoList;
  int next_top_ = kNoList;
  // One bit per list. `occupied_` = list non-empty; `active_` = holds a task
  // schedulable without a recalculation (any RT task, or counter > 0);
  // `exhausted_` = holds a zero-counter SCHED_OTHER task. top/next_top are
  // always the highest set bits of active_/exhausted_, so maintenance that
  // used to rescan all 30 lists is a find-last-set.
  OccupancyBitmap occupied_;
  OccupancyBitmap active_;
  OccupancyBitmap exhausted_;
};

}  // namespace elsc

#endif  // SRC_SCHED_ELSC_RUNQUEUE_H_
