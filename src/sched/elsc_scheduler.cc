#include "src/sched/elsc_scheduler.h"

#include <climits>

#include "src/base/assert.h"
#include "src/kernel/policy.h"
#include "src/base/string_util.h"
#include "src/sched/goodness.h"

namespace elsc {

ElscScheduler::ElscScheduler(const CostModel& cost_model, TaskList* all_tasks,
                             const SchedulerConfig& config, const ElscOptions& options)
    : Scheduler(cost_model, all_tasks, config),
      table_(options.table),
      search_limit_(config.num_cpus / 2 + options.search_limit_extra),
      affinity_decay_window_(options.affinity_decay_window) {
  ELSC_CHECK(search_limit_ >= 1);
}

void ElscScheduler::AddToRunQueue(Task* task) {
  ELSC_VERIFY_MSG(!task->OnRunQueue(), "add_to_runqueue: task already on run queue");
  table_.Insert(task);
  ++nr_running_;
  ++stats_.wakeups;
}

void ElscScheduler::DelFromRunQueue(Task* task) {
  ELSC_VERIFY_MSG(task->OnRunQueue(), "del_from_runqueue: task not on run queue");
  if (task->rq_slot != ElscRunQueue::kNoList) {
    table_.Remove(task);
  }
  // Clearing both pointers marks "not on the run queue at all" (the stock
  // convention is next == NULL; ELSC also maintains prev, paper footnote 3).
  task->run_list.next = nullptr;
  task->run_list.prev = nullptr;
  --nr_running_;
}

void ElscScheduler::MoveFirstRunQueue(Task* task) {
  // A currently-executing task is not in any list; biasing its position is
  // meaningless until it is re-inserted, so this is a no-op for it.
  if (task->rq_slot == ElscRunQueue::kNoList) {
    return;
  }
  table_.MoveFirstInSection(task);
}

void ElscScheduler::MoveLastRunQueue(Task* task) {
  if (task->rq_slot == ElscRunQueue::kNoList) {
    return;
  }
  table_.MoveLastInSection(task);
}

void ElscScheduler::DetachForRun(Task* task) {
  table_.Remove(task);
  // "On the run queue" without being in a list: next stays non-null (points
  // at itself rather than dangling), prev is nulled as the in-list test.
  task->run_list.next = &task->run_list;
  task->run_list.prev = nullptr;
}

Task* ElscScheduler::SearchList(int index, int this_cpu, const Task* prev, CostMeter& meter,
                                bool* descend) {
  *descend = false;
  const bool rt_list = table_.IsRtList(index);
  const ListHead* head = table_.list_head(index);

  Task* best = nullptr;
  long best_util = LONG_MIN;
  Task* best_rt = nullptr;
  Task* yielded_fallback = nullptr;
  int examined = 0;

  for (const ListHead* node = head->next; node != head; node = node->next) {
    if (examined >= search_limit_) {
      break;
    }
    Task* p = ListEntry<Task, &Task::run_list>(const_cast<ListHead*>(node));
    meter.ChargeExamine();
    ++examined;
    // Skip tasks still running on *another* CPU. (The previous task, being
    // re-inserted at the start of schedule(), is running on this CPU and is
    // treated properly by the loop, including its yield handling.)
    if (config_.smp && p->has_cpu != 0 && p->processor != this_cpu) {
      continue;
    }

    if (rt_list) {
      // Real-time search is much simpler: no yield handling, no bonuses —
      // just the highest rt_priority among the first few tasks.
      if (best_rt == nullptr || p->rt_priority > best_rt->rt_priority) {
        best_rt = p;
      }
      continue;
    }

    if (p->counter == 0) {
      // Zero-counter tasks live at the tail of the list; the rest of the
      // list is either empty or unusable, so break out of the search loop.
      break;
    }

    if (p->HasYielded()) {
      // Run a freshly-yielded task only if we cannot find another task on
      // the list.
      yielded_fallback = p;
      continue;
    }

    // Emulate the goodness() calculation: static goodness plus the dynamic
    // affinity and memory-map bonuses.
    long util = p->counter + p->priority;
    const bool mm_match = prev != nullptr && p->mm == prev->mm;
    if (config_.smp && p->processor == this_cpu) {
      // Optional affinity decay: a stale cache footprint earns no bonus.
      const bool fresh =
          affinity_decay_window_ == 0 ||
          CpuDispatchSeq(this_cpu) - p->last_run_stamp <= affinity_decay_window_;
      if (fresh) {
        util += kProcChangePenalty;
      }
    }
    if (mm_match) {
      util += kSameMmBonus;
    }
    if (util > best_util) {
      best_util = util;
      best = p;
    }
    if (!config_.smp && mm_match) {
      // Uniprocessor shortcut: no affinity bonus exists, so a memory-map
      // match cannot be beaten — end the search and run the task right away.
      best = p;
      break;
    }
  }

  if (rt_list) {
    if (best_rt != nullptr) {
      return best_rt;
    }
    // Every examined RT task was running on another CPU: try the next list.
    *descend = true;
    return nullptr;
  }
  if (best != nullptr) {
    return best;
  }
  if (yielded_fallback != nullptr) {
    return yielded_fallback;
  }
  // Nothing schedulable here (eliminated by the running-elsewhere check, an
  // exhausted tail, or the search limit): consider the next populated list.
  *descend = true;
  return nullptr;
}

Task* ElscScheduler::Schedule(int this_cpu, Task* prev, CostMeter& meter) {
  meter.ChargeEntry();
  meter.ChargeLock();

  const bool prev_yielded = prev != nullptr && PolicyHasYield(prev->policy);

  if (prev != nullptr) {
    if (prev->state == TaskState::kRunning) {
      // The previous task was removed from its list when it was picked; if it
      // is still runnable (quantum expiry, preemption, yield), insert it back
      // into the table now so the search loop treats it uniformly.
      bool rr_expired = false;
      if (PolicyBase(prev->policy) == kSchedRr && prev->counter == 0) {
        prev->counter = prev->priority;
        rr_expired = true;
      }
      if (prev->rq_slot == ElscRunQueue::kNoList) {
        meter.ChargeIndex();
        table_.Insert(prev);
        if (rr_expired) {
          // "ELSC moves exhausted SCHED_RR tasks to the ends of their lists"
          // (paper §5.2): the strict-> RT search then rotates to the equal-
          // priority task nearer the front.
          table_.MoveLastInSection(prev);
        }
      }
    } else if (prev->OnRunQueue()) {
      DelFromRunQueue(prev);
    }
  }

  Task* chosen = nullptr;
  while (true) {
    if (table_.top() == ElscRunQueue::kNoList) {
      if (table_.next_top() != ElscRunQueue::kNoList) {
        // Runnable tasks exist but all quanta are exhausted: recalculate
        // every counter in the system. The exhausted tasks were parked at
        // their predicted indices, so only the pointers need refreshing.
        meter.ChargeRecalc(all_tasks_->size());
        RecalculateCounters();
        table_.OnCountersRecalculated();
        continue;
      }
      // Table completely empty: schedule the idle task.
      break;
    }

    int list_index = table_.top();
    while (list_index != ElscRunQueue::kNoList) {
      bool descend = false;
      chosen = SearchList(list_index, this_cpu, prev, meter, &descend);
      if (chosen != nullptr || !descend) {
        break;
      }
      list_index = table_.NextPopulatedList(list_index - 1);
    }
    break;
  }

  if (chosen != nullptr) {
    // Manual removal (not del_from_runqueue): the task stays "on the run
    // queue" while it executes.
    meter.ChargeIndex();
    DetachForRun(chosen);
    if (chosen == prev && prev_yielded) {
      ++stats_.yield_reruns;
    }
  }

  // Give a yielded previous task a better chance in future calls.
  if (prev != nullptr) {
    prev->policy &= ~kSchedYield;
  }

  meter.ChargeFinish();
  RecordPick(this_cpu, prev, chosen, meter);
  return chosen;
}

std::string ElscScheduler::DebugString() const {
  std::string out;
  const int total = table_.table_config().total_lists();
  for (int i = total - 1; i >= 0; --i) {
    if (table_.ListEmptyAt(i)) {
      continue;
    }
    out += StrFormat("list[%2d]%s%s: listhead", i, i == table_.top() ? " <top>" : "",
                     i == table_.next_top() ? " <next_top>" : "");
    const ListHead* head = table_.list_head(i);
    for (const ListHead* node = head->next; node != head; node = node->next) {
      const Task* p = ListEntry<Task, &Task::run_list>(const_cast<ListHead*>(node));
      if (table_.IsRtList(i)) {
        out += StrFormat(" -> [rt%ld]", p->rt_priority);
      } else {
        out += StrFormat(" -> [%ld%s]", StaticGoodness(*p), p->counter == 0 ? "z" : "");
      }
    }
    out += "\n";
  }
  if (out.empty()) {
    out = "(table empty)\n";
  }
  out += StrFormat("top=%d next_top=%d nr_running=%zu in_lists=%zu", table_.top(),
                   table_.next_top(), nr_running_, table_.TotalSize());
  return out;
}

void ElscScheduler::CheckInvariants() const {
  // nr_running counts in-list tasks plus detached-running tasks; the table's
  // own structural invariants cover the rest. Detached tasks are owned by
  // CPUs, so the table population is nr_running minus those — callers with
  // full machine context assert the exact split; here verify table-internal
  // consistency only.
  table_.CheckInvariants(table_.TotalSize());
  ELSC_VERIFY_MSG(table_.TotalSize() <= nr_running_,
                 "more tasks in the ELSC table than on the run queue");
}

}  // namespace elsc
