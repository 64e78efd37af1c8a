#include "src/sched/heap_scheduler.h"

#include <bit>

#include "src/base/assert.h"
#include "src/kernel/policy.h"
#include "src/sched/goodness.h"

namespace elsc {

long HeapScheduler::KeyOf(const Task& p) {
  if (PolicyHasYield(p.policy)) {
    return 0;
  }
  if (PolicyIsRealtime(p.policy)) {
    return kRealtimeBase + p.rt_priority;
  }
  if (p.counter == 0) {
    return 0;
  }
  return p.counter + p.priority;
}

void HeapScheduler::ChargeHeapOp(CostMeter* meter) const {
  if (meter == nullptr) {
    return;
  }
  const auto levels = static_cast<Cycles>(std::bit_width(heap_.size() + 1));
  meter->Charge(cost_model_.elsc_index + levels * (cost_model_.task_examine / 8));
}

void HeapScheduler::SiftUp(size_t index) {
  while (index > 0) {
    const size_t parent = (index - 1) / 2;
    if (keys_[parent] >= keys_[index]) {
      break;
    }
    std::swap(heap_[parent], heap_[index]);
    std::swap(keys_[parent], keys_[index]);
    heap_[parent]->rq_slot = static_cast<int>(parent);
    heap_[index]->rq_slot = static_cast<int>(index);
    index = parent;
  }
}

void HeapScheduler::SiftDown(size_t index) {
  const size_t n = heap_.size();
  while (true) {
    const size_t left = 2 * index + 1;
    const size_t right = left + 1;
    size_t largest = index;
    if (left < n && keys_[left] > keys_[largest]) {
      largest = left;
    }
    if (right < n && keys_[right] > keys_[largest]) {
      largest = right;
    }
    if (largest == index) {
      break;
    }
    std::swap(heap_[largest], heap_[index]);
    std::swap(keys_[largest], keys_[index]);
    heap_[largest]->rq_slot = static_cast<int>(largest);
    heap_[index]->rq_slot = static_cast<int>(index);
    index = largest;
  }
}

void HeapScheduler::HeapPush(Task* task, CostMeter* meter, long key_penalty) {
  ELSC_VERIFY_MSG(task->rq_slot == -1, "task already in run-queue heap");
  heap_.push_back(task);
  keys_.push_back(KeyOf(*task) - key_penalty);
  task->rq_slot = static_cast<int>(heap_.size() - 1);
  SiftUp(heap_.size() - 1);
  ChargeHeapOp(meter);
}

Task* HeapScheduler::HeapPopAt(size_t index, CostMeter* meter) {
  ELSC_VERIFY(index < heap_.size());
  Task* removed = heap_[index];
  const size_t last = heap_.size() - 1;
  if (index != last) {
    heap_[index] = heap_[last];
    keys_[index] = keys_[last];
    heap_[index]->rq_slot = static_cast<int>(index);
  }
  heap_.pop_back();
  keys_.pop_back();
  removed->rq_slot = -1;
  if (index < heap_.size()) {
    SiftDown(index);
    SiftUp(index);
  }
  ChargeHeapOp(meter);
  return removed;
}

void HeapScheduler::AddToRunQueue(Task* task) {
  ELSC_VERIFY_MSG(!task->OnRunQueue(), "add_to_runqueue: task already on run queue");
  task->run_list.next = &task->run_list;  // "On the run queue" marker.
  task->run_list.prev = &task->run_list;
  HeapPush(task, nullptr);
  ++nr_running_;
  ++stats_.wakeups;
}

void HeapScheduler::DelFromRunQueue(Task* task) {
  ELSC_VERIFY_MSG(task->OnRunQueue(), "del_from_runqueue: task not on run queue");
  if (task->rq_slot != -1) {
    HeapPopAt(static_cast<size_t>(task->rq_slot), nullptr);
  }
  task->run_list.next = nullptr;
  task->run_list.prev = nullptr;
  --nr_running_;
}

void HeapScheduler::MoveFirstRunQueue(Task* task) { (void)task; }
void HeapScheduler::MoveLastRunQueue(Task* task) { (void)task; }

void HeapScheduler::RebuildHeap() {
  for (size_t i = 0; i < heap_.size(); ++i) {
    keys_[i] = KeyOf(*heap_[i]);
  }
  if (!heap_.empty()) {
    for (size_t i = heap_.size() / 2; i-- > 0;) {
      SiftDown(i);
    }
  }
}

Task* HeapScheduler::Schedule(int this_cpu, Task* prev, CostMeter& meter) {
  meter.ChargeEntry();
  meter.ChargeLock();

  if (prev != nullptr) {
    // One-shot yield penalty: clear the bit now; KeyOf() already returned 0
    // for it if we push below (bit still influences nothing else).
    const bool yielded = PolicyHasYield(prev->policy);
    bool rr_expired = false;
    if (PolicyBase(prev->policy) == kSchedRr && prev->counter == 0) {
      prev->counter = prev->priority;
      rr_expired = true;
    }
    if (prev->state == TaskState::kRunning) {
      if (prev->rq_slot == -1) {
        // Push with the yield-penalized key, then clear the bit; an expired
        // RR task takes a one-point key dock so equal-priority peers pop
        // first (POSIX round-robin rotation).
        HeapPush(prev, &meter, rr_expired ? 1 : 0);
      }
    } else if (prev->OnRunQueue()) {
      DelFromRunQueue(prev);
    }
    if (yielded) {
      prev->policy &= ~kSchedYield;
    }
  }

  Task* chosen = nullptr;
  std::vector<Task*> running_elsewhere;
  while (true) {
    if (heap_.empty()) {
      break;
    }
    meter.ChargeExamine();
    Task* top = HeapPopAt(0, &meter);
    if (config_.smp && top->has_cpu != 0 && top->processor != this_cpu) {
      // At most num_cpus - 1 such tasks can exist, so this loop terminates.
      running_elsewhere.push_back(top);
      continue;
    }
    if (!top->IsRealtime() && top->counter == 0) {
      // Best usable task is exhausted => everything usable is exhausted:
      // recalculate all counters, put it back, and search again.
      HeapPush(top, &meter);
      for (Task* t : running_elsewhere) {
        HeapPush(t, &meter);
      }
      running_elsewhere.clear();
      meter.ChargeRecalc(all_tasks_->size());
      RecalculateCounters();
      RebuildHeap();
      continue;
    }
    chosen = top;  // Stays out of the heap while it runs (still marked on-rq).
    break;
  }
  for (Task* t : running_elsewhere) {
    HeapPush(t, &meter);
  }

  meter.ChargeFinish();
  RecordPick(this_cpu, prev, chosen, meter);
  return chosen;
}

void HeapScheduler::CheckInvariants() const {
  ELSC_VERIFY(heap_.size() == keys_.size());
  ELSC_VERIFY_MSG(heap_.size() <= nr_running_, "more tasks in heap than on run queue");
  for (size_t i = 0; i < heap_.size(); ++i) {
    ELSC_VERIFY_MSG(heap_[i]->rq_slot == static_cast<int>(i), "heap slot out of sync");
    ELSC_VERIFY_MSG(heap_[i]->state == TaskState::kRunning, "non-runnable task in heap");
    if (i > 0) {
      const size_t parent = (i - 1) / 2;
      ELSC_VERIFY_MSG(keys_[parent] >= keys_[i], "heap property violated");
    }
  }
}

}  // namespace elsc
