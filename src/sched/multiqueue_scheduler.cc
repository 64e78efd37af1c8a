#include "src/sched/multiqueue_scheduler.h"

#include <algorithm>

#include "src/base/assert.h"
#include "src/kernel/policy.h"
#include "src/base/string_util.h"
#include "src/sched/goodness.h"

namespace elsc {

MultiQueueScheduler::MultiQueueScheduler(const CostModel& cost_model, TaskList* all_tasks,
                                         const SchedulerConfig& config)
    : Scheduler(cost_model, all_tasks, config) {
  queues_.resize(static_cast<size_t>(config.num_cpus));
  sizes_.assign(queues_.size(), 0);
  for (auto& queue : queues_) {
    InitListHead(&queue.head);
  }
  nonempty_.Reset(config.num_cpus);
  steal_order_.reserve(queues_.size());
}

int MultiQueueScheduler::HomeQueue(const Task& task) const {
  const int cpu = task.processor;
  return cpu >= 0 && cpu < config_.num_cpus ? cpu : 0;
}

void MultiQueueScheduler::AddToRunQueue(Task* task) {
  ELSC_VERIFY_MSG(!task->OnRunQueue(), "add_to_runqueue: task already on run queue");
  const int q = HomeQueue(*task);
  ListAdd(&task->run_list, &queues_[static_cast<size_t>(q)].head);
  task->rq_slot = q;
  ++sizes_[static_cast<size_t>(q)];
  nonempty_.Set(q);
  ++nr_running_;
  ++stats_.wakeups;
}

void MultiQueueScheduler::DelFromRunQueue(Task* task) {
  ELSC_VERIFY_MSG(task->OnRunQueue(), "del_from_runqueue: task not on run queue");
  const int q = task->rq_slot;
  ELSC_VERIFY(q >= 0 && q < config_.num_cpus);
  ListDel(&task->run_list);
  task->run_list.next = nullptr;
  task->run_list.prev = nullptr;
  task->rq_slot = -1;
  ELSC_VERIFY(sizes_[static_cast<size_t>(q)] > 0);
  if (--sizes_[static_cast<size_t>(q)] == 0) {
    nonempty_.Clear(q);
  }
  --nr_running_;
}

void MultiQueueScheduler::MoveFirstRunQueue(Task* task) {
  ELSC_VERIFY(task->OnRunQueue());
  ListMove(&task->run_list, &queues_[static_cast<size_t>(task->rq_slot)].head);
}

void MultiQueueScheduler::MoveLastRunQueue(Task* task) {
  ELSC_VERIFY(task->OnRunQueue());
  ListMoveTail(&task->run_list, &queues_[static_cast<size_t>(task->rq_slot)].head);
}

Task* MultiQueueScheduler::SearchQueue(int q, int this_cpu, const MmStruct* this_mm,
                                       CostMeter& meter, long* best_weight) const {
  Task* best = nullptr;
  long c = kUnschedulableWeight;
  const ListHead* head = &queues_[static_cast<size_t>(q)].head;
  for (const ListHead* node = head->next; node != head; node = node->next) {
    Task* p = ListEntry<Task, &Task::run_list>(const_cast<ListHead*>(node));
    if (p->has_cpu != 0) {
      continue;
    }
    meter.ChargeExamine();
    const long weight = Goodness(*p, this_cpu, this_mm, config_.smp);
    if (weight > c) {
      c = weight;
      best = p;
    }
  }
  *best_weight = c;
  return best;
}

Task* MultiQueueScheduler::Schedule(int this_cpu, Task* prev, CostMeter& meter) {
  meter.ChargeEntry();
  meter.ChargeLock();  // The CPU's own queue lock (uncontended by design).

  const MmStruct* this_mm = prev != nullptr ? prev->mm : nullptr;

  bool rr_expired = false;
  if (prev != nullptr) {
    if (PolicyBase(prev->policy) == kSchedRr && prev->counter == 0) {
      prev->counter = prev->priority;
      MoveLastRunQueue(prev);
      rr_expired = true;  // Lose exact ties this once: POSIX RR rotation.
    }
    if (prev->state != TaskState::kRunning && prev->OnRunQueue()) {
      DelFromRunQueue(prev);
    }
  }

  while (true) {
    Task* next = nullptr;
    long c = kUnschedulableWeight;
    if (prev != nullptr && prev->state == TaskState::kRunning) {
      c = PrevGoodness(*prev, this_cpu, this_mm, config_.smp);
      if (rr_expired) {
        --c;
      }
      next = prev;
    }

    long own_weight = kUnschedulableWeight;
    Task* own = SearchQueue(this_cpu, this_cpu, this_mm, meter, &own_weight);
    if (own_weight > c) {
      c = own_weight;
      next = own;
    }

    if (c > 0) {
      meter.ChargeFinish();
      RecordPick(this_cpu, prev, next, meter);
      return next;
    }

    // Nothing schedulable at home. Try to steal the best positive-goodness
    // candidate from the longest peer queue (paying the cross-queue lock).
    Task* stolen = nullptr;
    long stolen_weight = 0;
    bool any_runnable_elsewhere = false;
    // Non-empty-queue bitmap early exit: when every peer queue is empty the
    // longest-first ordering below would visit nothing, so skip building it.
    const bool any_peer_work =
        nonempty_.Any() &&
        !(nonempty_.PopCount() == 1 && nonempty_.Test(this_cpu));
    if (any_peer_work) {
      // Visit peers longest-first. The scratch vector is rebuilt and sorted
      // exactly as before, so ties between equal-length queues resolve the
      // same way; only the per-call allocation is gone.
      steal_order_.clear();
      for (int q = 0; q < config_.num_cpus; ++q) {
        if (q != this_cpu) {
          steal_order_.push_back(q);
        }
      }
      std::sort(steal_order_.begin(), steal_order_.end(),
                [this](int a, int b) { return sizes_[static_cast<size_t>(a)] > sizes_[static_cast<size_t>(b)]; });
      for (const int q : steal_order_) {
        if (sizes_[static_cast<size_t>(q)] == 0) {
          continue;
        }
        meter.ChargeLock();  // Peer queue lock.
        long weight = kUnschedulableWeight;
        Task* candidate = SearchQueue(q, this_cpu, this_mm, meter, &weight);
        if (candidate != nullptr) {
          any_runnable_elsewhere = true;
          if (weight > stolen_weight) {
            stolen_weight = weight;
            stolen = candidate;
            break;  // Longest queue's best positive candidate is good enough.
          }
        }
      }
    }

    if (stolen != nullptr) {
      // Migrate the task to this CPU's queue; the dispatch path updates its
      // processor field.
      DelFromRunQueue(stolen);
      // Re-home manually (AddToRunQueue would use the stale processor).
      ListAdd(&stolen->run_list, &queues_[static_cast<size_t>(this_cpu)].head);
      stolen->rq_slot = this_cpu;
      ++sizes_[static_cast<size_t>(this_cpu)];
      nonempty_.Set(this_cpu);
      ++nr_running_;
      ++steals_;
      meter.ChargeIndex();
      meter.ChargeFinish();
      RecordPick(this_cpu, prev, stolen, meter);
      return stolen;
    }

    // Exhausted candidates exist (here or elsewhere) but nothing has a
    // positive goodness: recalculate, exactly like the stock scheduler.
    if (c == 0 || any_runnable_elsewhere) {
      meter.ChargeRecalc(all_tasks_->size());
      RecalculateCounters();
      continue;
    }

    // Truly nothing to run.
    meter.ChargeFinish();
    RecordPick(this_cpu, prev, nullptr, meter);
    return nullptr;
  }
}

std::string MultiQueueScheduler::DebugString() const {
  std::string out;
  for (int q = 0; q < config_.num_cpus; ++q) {
    out += StrFormat("cpu%d queue: listhead", q);
    const ListHead* head = &queues_[static_cast<size_t>(q)].head;
    for (const ListHead* node = head->next; node != head; node = node->next) {
      const Task* p = ListEntry<Task, &Task::run_list>(const_cast<ListHead*>(node));
      out += StrFormat(" -> [%ld%s]", StaticGoodness(*p), p->has_cpu != 0 ? "*" : "");
    }
    out += "\n";
  }
  out += StrFormat("steals=%llu nr_running=%zu", (unsigned long long)steals_, nr_running_);
  return out;
}

void MultiQueueScheduler::CheckInvariants() const {
  size_t total = 0;
  for (int q = 0; q < config_.num_cpus; ++q) {
    const ListHead* head = &queues_[static_cast<size_t>(q)].head;
    size_t count = 0;
    for (const ListHead* node = head->next; node != head; node = node->next) {
      ELSC_VERIFY(node->next->prev == node);
      ELSC_VERIFY(node->prev->next == node);
      const Task* p = ListEntry<Task, &Task::run_list>(const_cast<ListHead*>(node));
      ELSC_VERIFY_MSG(p->rq_slot == q, "multiqueue task in wrong queue");
      // Mid-block window: see LinuxScheduler::CheckInvariants.
      ELSC_VERIFY_MSG(p->state == TaskState::kRunning || p->has_cpu != 0,
                     "non-runnable task on a run queue");
      ++count;
      ELSC_VERIFY_MSG(count <= nr_running_ + 1, "multiqueue list corrupt (cycle?)");
    }
    ELSC_VERIFY_MSG(count == sizes_[static_cast<size_t>(q)], "queue size counter out of sync");
    ELSC_VERIFY_MSG(nonempty_.Test(q) == (count != 0),
                    "multiqueue non-empty bitmap disagrees with queue contents");
    total += count;
  }
  ELSC_VERIFY_MSG(total == nr_running_, "nr_running out of sync with queues");
}

}  // namespace elsc
