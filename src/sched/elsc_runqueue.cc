#include "src/sched/elsc_runqueue.h"

#include <algorithm>

#include "src/base/assert.h"
#include "src/kernel/policy.h"

namespace elsc {

ElscRunQueue::ElscRunQueue(const ElscTableConfig& config) : config_(config) {
  ELSC_CHECK(config_.num_other_lists >= 1);
  ELSC_CHECK(config_.num_rt_lists >= 1);
  ELSC_CHECK(config_.goodness_divisor >= 1);
  lists_.resize(static_cast<size_t>(config_.total_lists()));
  sizes_.assign(lists_.size(), 0);
  for (auto& head : lists_) {
    InitListHead(&head);
  }
  occupied_.Reset(config_.total_lists());
  active_.Reset(config_.total_lists());
  exhausted_.Reset(config_.total_lists());
}

int ElscRunQueue::IndexFor(const Task& task) const {
  if (PolicyIsRealtime(task.policy)) {
    // Real-time tasks use one of the ten highest lists, indexed by
    // rt_priority / 10 (paper §5.1).
    const long rt_slot = std::min<long>(task.rt_priority / 10, config_.num_rt_lists - 1);
    return config_.num_other_lists + static_cast<int>(rt_slot);
  }
  // For an exhausted task, predict the counter value the recalculation loop
  // will assign: counter/2 + priority == priority when counter == 0.
  const long counter = task.counter != 0 ? task.counter : task.priority;
  const long index = (counter + task.priority) / config_.goodness_divisor;
  return static_cast<int>(std::clamp<long>(index, 0, config_.num_other_lists - 1));
}

void ElscRunQueue::Insert(Task* task) {
  ELSC_VERIFY_MSG(task->rq_slot == kNoList, "task already in an ELSC list");
  const int index = IndexFor(*task);
  if (IsRtList(index) || task->counter != 0) {
    // Schedulable now: front of the list, like the stock scheduler's
    // add-to-front bias for fresh wakeups.
    ListAdd(&task->run_list, &lists_[index]);
    occupied_.Set(index);
    active_.Set(index);
    if (index > top_) {
      top_ = index;
    }
  } else {
    // Exhausted: park at the tail (predicted index), out of the search's way
    // but in position for the next recalculation.
    ListAddTail(&task->run_list, &lists_[index]);
    occupied_.Set(index);
    exhausted_.Set(index);
    if (index > next_top_) {
      next_top_ = index;
    }
  }
  task->rq_slot = index;
  ++sizes_[index];
  ++total_;
}

void ElscRunQueue::Remove(Task* task) {
  const int index = task->rq_slot;
  ELSC_VERIFY_MSG(index != kNoList, "task not in any ELSC list");
  ListDel(&task->run_list);
  task->rq_slot = kNoList;
  ELSC_VERIFY(sizes_[index] > 0);
  --sizes_[index];
  --total_;
  UpdateBitsAndTops(index);
}

void ElscRunQueue::UpdateBitsAndTops(int index) {
  occupied_.Assign(index, !ListEmpty(&lists_[index]));
  active_.Assign(index, HasActiveTask(index));
  exhausted_.Assign(index, HasExhaustedTask(index));
  // Only a removal from the top list can lower the top, so the common case
  // (removal below the tops) leaves both untouched.
  if (index == top_) {
    top_ = active_.Highest();
  }
  if (index == next_top_) {
    next_top_ = exhausted_.Highest();
  }
}

Task* ElscRunQueue::Front(int index) const {
  const ListHead* head = &lists_[index];
  if (ListEmpty(head)) {
    return nullptr;
  }
  return ListEntry<Task, &Task::run_list>(const_cast<ListHead*>(head)->next);
}

Task* ElscRunQueue::Back(int index) const {
  const ListHead* head = &lists_[index];
  if (ListEmpty(head)) {
    return nullptr;
  }
  return ListEntry<Task, &Task::run_list>(const_cast<ListHead*>(head)->prev);
}

bool ElscRunQueue::HasActiveTask(int index) const {
  if (ListEmpty(&lists_[index])) {
    return false;
  }
  if (IsRtList(index)) {
    // Real-time tasks always run before regular tasks, even with a zero
    // counter (paper footnote 2), so any resident makes the list active.
    return true;
  }
  // Section discipline: non-zero-counter tasks precede zero-counter ones, so
  // checking the front suffices.
  return Front(index)->counter != 0;
}

bool ElscRunQueue::HasExhaustedTask(int index) const {
  if (ListEmpty(&lists_[index]) || IsRtList(index)) {
    return false;
  }
  return Back(index)->counter == 0;
}

void ElscRunQueue::MoveFirstInSection(Task* task) {
  const int index = task->rq_slot;
  ELSC_VERIFY(index != kNoList);
  ListHead* head = &lists_[index];
  if (IsRtList(index) || task->counter != 0) {
    ListMove(&task->run_list, head);
    return;
  }
  // Zero-counter section starts after the last non-zero task: walk from the
  // front past the active section.
  ListHead* pos = head;
  for (ListHead* node = head->next; node != head; node = node->next) {
    if (node == &task->run_list) {
      continue;
    }
    const Task* p = ListEntry<Task, &Task::run_list>(node);
    if (p->counter == 0) {
      break;
    }
    pos = node;
  }
  ListDel(&task->run_list);
  ListAdd(&task->run_list, pos);
}

void ElscRunQueue::MoveLastInSection(Task* task) {
  const int index = task->rq_slot;
  ELSC_VERIFY(index != kNoList);
  ListHead* head = &lists_[index];
  if (!IsRtList(index) && task->counter == 0) {
    ListMoveTail(&task->run_list, head);
    return;
  }
  if (IsRtList(index)) {
    ListMoveTail(&task->run_list, head);
    return;
  }
  // Active task: end of the active section = just before the first
  // zero-counter task (or the tail if none).
  ListHead* before = head;  // Insert before this node.
  for (ListHead* node = head->next; node != head; node = node->next) {
    if (node == &task->run_list) {
      continue;
    }
    const Task* p = ListEntry<Task, &Task::run_list>(node);
    if (p->counter == 0) {
      before = node;
      break;
    }
  }
  ListDel(&task->run_list);
  ListAddTail(&task->run_list, before);
}

void ElscRunQueue::Reindex(Task* task) {
  Remove(task);
  Insert(task);
}

void ElscRunQueue::OnCountersRecalculated() {
  // Every task still in a list just had its counter recalculated to
  // counter/2 + priority >= kMinPriority > 0 (RT tasks are active
  // regardless), so every occupied list is now active and none is exhausted.
  active_.CopyFrom(occupied_);
  exhausted_.ClearAll();
  top_ = active_.Highest();
  next_top_ = kNoList;
}

int ElscRunQueue::NextPopulatedList(int below) const {
  return occupied_.HighestAtOrBelow(below);
}

void ElscRunQueue::CheckInvariants(size_t expected_in_lists) const {
  size_t counted = 0;
  int expect_top = kNoList;
  int expect_next_top = kNoList;
  for (int i = config_.total_lists() - 1; i >= 0; --i) {
    const ListHead* head = &lists_[i];
    size_t list_count = 0;
    bool seen_exhausted = false;
    for (const ListHead* node = head->next; node != head; node = node->next) {
      ELSC_VERIFY(node->next->prev == node);
      ELSC_VERIFY(node->prev->next == node);
      const Task* p = ListEntry<Task, &Task::run_list>(const_cast<ListHead*>(node));
      ELSC_VERIFY_MSG(p->rq_slot == i, "task's cached list index is wrong");
      ELSC_VERIFY_MSG(p->state == TaskState::kRunning, "non-runnable task in ELSC table");
      if (IsRtList(i)) {
        ELSC_VERIFY_MSG(PolicyIsRealtime(p->policy), "non-RT task in an RT list");
      } else {
        ELSC_VERIFY_MSG(!PolicyIsRealtime(p->policy), "RT task in a SCHED_OTHER list");
        if (p->counter == 0) {
          seen_exhausted = true;
        } else {
          ELSC_VERIFY_MSG(!seen_exhausted, "active task behind an exhausted task in a list");
        }
      }
      ++list_count;
      ELSC_VERIFY_MSG(list_count <= total_ + 1, "ELSC list corrupt (cycle?)");
    }
    ELSC_VERIFY_MSG(list_count == sizes_[i], "ELSC per-list size counter out of sync");
    counted += list_count;
    // The occupancy bitmaps must agree with the actual list contents — the
    // O(1) find-last-set scans are only correct if these bits are exact.
    ELSC_VERIFY_MSG(occupied_.Test(i) == !ListEmpty(head),
                    "ELSC occupied bitmap disagrees with list emptiness");
    ELSC_VERIFY_MSG(active_.Test(i) == HasActiveTask(i),
                    "ELSC active bitmap disagrees with list contents");
    ELSC_VERIFY_MSG(exhausted_.Test(i) == HasExhaustedTask(i),
                    "ELSC exhausted bitmap disagrees with list contents");
    if (expect_top == kNoList && HasActiveTask(i)) {
      expect_top = i;
    }
    if (expect_next_top == kNoList && HasExhaustedTask(i)) {
      expect_next_top = i;
    }
  }
  ELSC_VERIFY_MSG(counted == total_, "ELSC total size out of sync");
  ELSC_VERIFY_MSG(counted == expected_in_lists, "ELSC table population unexpected");
  ELSC_VERIFY_MSG(top_ == expect_top, "ELSC top pointer stale");
  ELSC_VERIFY_MSG(next_top_ == expect_next_top, "ELSC next_top pointer stale");
}

}  // namespace elsc
