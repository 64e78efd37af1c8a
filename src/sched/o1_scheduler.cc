#include "src/sched/o1_scheduler.h"

#include "src/base/assert.h"
#include "src/base/string_util.h"
#include "src/kernel/policy.h"

namespace elsc {

O1Scheduler::O1Scheduler(const CostModel& cost_model, TaskList* all_tasks,
                         const SchedulerConfig& config)
    : Scheduler(cost_model, all_tasks, config) {
  queues_.resize(static_cast<size_t>(config.num_cpus));
  for (RunQueue& rq : queues_) {
    for (PrioArray& arr : rq.arrays) {
      for (ListHead& head : arr.lists) {
        InitListHead(&head);
      }
      arr.bitmap.Reset(kPrioLevels);
    }
  }
}

int O1Scheduler::PrioIndexOf(const Task& task) {
  if (PolicyIsRealtime(task.policy)) {
    long rt = task.rt_priority;
    if (rt < 0) rt = 0;
    if (rt > kMaxRtPriority) rt = kMaxRtPriority;
    return static_cast<int>(kMaxRtPriority - rt);  // rt 99 -> 0, rt 0 -> 99.
  }
  long p = task.priority;
  if (p < kMinPriority) p = kMinPriority;
  if (p > kMaxPriority) p = kMaxPriority;
  return static_cast<int>(100 + (kMaxPriority - p));  // prio 40 -> 100, 1 -> 139.
}

int O1Scheduler::HomeCpu(const Task& task) const {
  const int cpu = task.processor;
  return cpu >= 0 && cpu < config_.num_cpus ? cpu : 0;
}

void O1Scheduler::Enqueue(Task* task, int cpu, int slot, bool tail) {
  const int prio = PrioIndexOf(*task);
  PrioArray& arr = queues_[static_cast<size_t>(cpu)].arrays[slot];
  if (tail) {
    ListAddTail(&task->run_list, &arr.lists[prio]);
  } else {
    ListAdd(&task->run_list, &arr.lists[prio]);
  }
  task->rq_slot = EncodeIndex(cpu, slot, prio);
  arr.bitmap.Set(prio);
  ++arr.count;
}

void O1Scheduler::Dequeue(Task* task) {
  int cpu = 0;
  int slot = 0;
  int prio = 0;
  DecodeIndex(task->rq_slot, &cpu, &slot, &prio);
  ELSC_VERIFY(cpu >= 0 && cpu < config_.num_cpus && slot >= 0 && slot < kNumArrays);
  PrioArray& arr = queues_[static_cast<size_t>(cpu)].arrays[slot];
  ListDel(&task->run_list);
  task->run_list.next = nullptr;
  task->run_list.prev = nullptr;
  task->rq_slot = -1;
  ELSC_VERIFY(arr.count > 0);
  --arr.count;
  if (ListEmpty(&arr.lists[prio])) {
    arr.bitmap.Clear(prio);
  }
}

void O1Scheduler::AddToRunQueue(Task* task) {
  ELSC_VERIFY_MSG(!task->OnRunQueue(), "add_to_runqueue: task already on run queue");
  const int cpu = HomeCpu(*task);
  RunQueue& rq = queues_[static_cast<size_t>(cpu)];
  // A SCHED_OTHER task arriving with an exhausted quantum (fork child of a
  // drained parent, re-filed expired task) waits for the next epoch in the
  // expired array; everything else enqueues at the tail of the active array.
  int slot = rq.active;
  if (!PolicyIsRealtime(task->policy) && task->counter == 0) {
    slot ^= 1;
  }
  Enqueue(task, cpu, slot, /*tail=*/true);
  ++nr_running_;
  ++stats_.wakeups;
}

void O1Scheduler::DelFromRunQueue(Task* task) {
  ELSC_VERIFY_MSG(task->OnRunQueue(), "del_from_runqueue: task not on run queue");
  Dequeue(task);
  --nr_running_;
}

void O1Scheduler::MoveFirstRunQueue(Task* task) {
  ELSC_VERIFY(task->OnRunQueue());
  int cpu = 0;
  int slot = 0;
  int prio = 0;
  DecodeIndex(task->rq_slot, &cpu, &slot, &prio);
  ListMove(&task->run_list, &queues_[static_cast<size_t>(cpu)].arrays[slot].lists[prio]);
}

void O1Scheduler::MoveLastRunQueue(Task* task) {
  ELSC_VERIFY(task->OnRunQueue());
  int cpu = 0;
  int slot = 0;
  int prio = 0;
  DecodeIndex(task->rq_slot, &cpu, &slot, &prio);
  ListMoveTail(&task->run_list, &queues_[static_cast<size_t>(cpu)].arrays[slot].lists[prio]);
}

Task* O1Scheduler::FindFirst(PrioArray& arr, const Task* prev, CostMeter& meter) const {
  if (arr.count == 0) {
    return nullptr;
  }
  for (int prio = arr.bitmap.Lowest(); prio >= 0 && prio < kPrioLevels; ++prio) {
    if (!arr.bitmap.Test(prio)) {
      continue;
    }
    const ListHead* head = &arr.lists[prio];
    for (ListHead* node = head->next; node != head; node = node->next) {
      Task* p = ListEntry<Task, &Task::run_list>(node);
      meter.ChargeExamine();
      // has_cpu tasks are executing (or claimed by an in-flight pick)
      // elsewhere; only prev — whose context this call runs in — is fair
      // game. At most one such task lives in any queue, so this loop is
      // O(1) in queue depth.
      if (p->has_cpu != 0 && p != prev) {
        continue;
      }
      return p;
    }
  }
  return nullptr;
}

Task* O1Scheduler::PullTask(int src, CostMeter& meter) {
  RunQueue& srq = queues_[static_cast<size_t>(src)];
  // Expired array first (its tasks wait longest and are cache-cold anyway —
  // the 2.6 pull order), most urgent list first, front of list.
  for (int pass = 0; pass < kNumArrays; ++pass) {
    const int slot = pass == 0 ? (srq.active ^ 1) : srq.active;
    PrioArray& arr = srq.arrays[slot];
    if (arr.count == 0) {
      continue;
    }
    for (int prio = arr.bitmap.Lowest(); prio >= 0 && prio < kPrioLevels; ++prio) {
      if (!arr.bitmap.Test(prio)) {
        continue;
      }
      const ListHead* head = &arr.lists[prio];
      for (ListHead* node = head->next; node != head; node = node->next) {
        Task* p = ListEntry<Task, &Task::run_list>(node);
        meter.ChargeExamine();
        if (p->has_cpu != 0) {
          continue;  // Running on (or claimed by) the source CPU.
        }
        Dequeue(p);
        return p;
      }
    }
  }
  return nullptr;
}

bool O1Scheduler::LoadBalance(int this_cpu, bool idle, CostMeter& meter) {
  ++stats_.load_balance_calls;
  const size_t own = QueueDepth(this_cpu);
  // Busiest peer: max depth, ascending CPU index breaks ties. An idle pull
  // needs a peer with more than its running task; a periodic pull needs the
  // imbalance to exceed one task.
  size_t threshold = idle ? 1 : own + 1;
  int busiest = -1;
  size_t best = threshold;
  for (int c = 0; c < config_.num_cpus; ++c) {
    if (c == this_cpu) {
      continue;
    }
    const size_t depth = QueueDepth(c);
    if (depth > best) {
      best = depth;
      busiest = c;
    }
  }
  if (busiest < 0) {
    return false;
  }
  // Double-lock the source queue; the Machine applies own + remote locks in
  // ascending CPU index and charges any residual hold time of the peer.
  meter.ChargeRemoteLock(busiest);
  Task* pulled = PullTask(busiest, meter);
  if (pulled == nullptr) {
    return false;
  }
  // Migrate into this CPU's active array; the dispatch path re-stamps the
  // task's processor field.
  Enqueue(pulled, this_cpu, queues_[static_cast<size_t>(this_cpu)].active, /*tail=*/true);
  ++stats_.pull_migrations;
  meter.ChargeIndex();
  return true;
}

Task* O1Scheduler::Schedule(int this_cpu, Task* prev, CostMeter& meter) {
  meter.ChargeEntry();
  meter.ChargeLock();  // This CPU's own run-queue lock.
  RunQueue& rq = queues_[static_cast<size_t>(this_cpu)];
  ++rq.picks;

  if (prev != nullptr) {
    if (PolicyHasYield(prev->policy)) {
      // sched_yield(): the Machine already rotated prev to the tail of its
      // list; consuming the bit here keeps parity with prev_goodness().
      prev->policy &= ~kSchedYield;
    }
    if (prev->state != TaskState::kRunning && prev->OnRunQueue()) {
      DelFromRunQueue(prev);
    } else if (prev->OnRunQueue() && prev->counter == 0) {
      if (PolicyBase(prev->policy) == kSchedRr) {
        // POSIX RR rotation: refill and go to the back of the same list.
        prev->counter = prev->priority;
        MoveLastRunQueue(prev);
      } else if (PolicyBase(prev->policy) == kSchedOther) {
        // Timeslice expiry: refill and move to the expired array — prev
        // runs again when the epoch turns over (array swap).
        prev->counter = prev->priority;
        Dequeue(prev);
        Enqueue(prev, this_cpu, rq.active ^ 1, /*tail=*/true);
        meter.ChargeIndex();
      }
      // SCHED_FIFO runs until it blocks or yields; counter is not used.
    }
    if (prev->OnRunQueue()) {
      // A priority/policy change while prev was executing could not re-file
      // it (SetTaskPriority only re-files tasks with has_cpu == 0); fix the
      // placement now, in the same array slot it already occupies.
      int pcpu = 0;
      int pslot = 0;
      int pprio = 0;
      DecodeIndex(prev->rq_slot, &pcpu, &pslot, &pprio);
      if (pprio != PrioIndexOf(*prev)) {
        Dequeue(prev);
        Enqueue(prev, pcpu, pslot, /*tail=*/true);
        meter.ChargeIndex();
      }
    }
  }

  // Periodic balance: every kBalanceInterval-th pick on this CPU looks for
  // an imbalance (deterministic: keyed on this queue's own pick count).
  if (config_.smp && config_.num_cpus > 1 && rq.picks % kBalanceInterval == 0) {
    LoadBalance(this_cpu, /*idle=*/false, meter);
  }

  bool balanced = false;
  while (true) {
    PrioArray* active = &rq.arrays[rq.active];
    if (active->count == 0 && rq.arrays[rq.active ^ 1].count != 0) {
      // Epoch turnover: the expired array becomes the active one.
      rq.active ^= 1;
      ++stats_.array_swaps;
      meter.ChargeIndex();
      active = &rq.arrays[rq.active];
    }

    Task* next = FindFirst(*active, prev, meter);
    if (next != nullptr) {
      if (next->counter == 0 && !PolicyIsRealtime(next->policy)) {
        // An expired-epoch task reaching the head of the active array (via
        // swap or pull) starts its new timeslice now.
        next->counter = next->priority;
      }
      meter.ChargeFinish();
      RecordPick(this_cpu, prev, next, meter);
      return next;
    }

    // Nothing pickable at home: one idle-balance pull attempt, then idle.
    if (!balanced && config_.smp && config_.num_cpus > 1) {
      balanced = true;
      if (LoadBalance(this_cpu, /*idle=*/true, meter)) {
        continue;
      }
    }
    meter.ChargeFinish();
    RecordPick(this_cpu, prev, nullptr, meter);
    return nullptr;
  }
}

long O1Scheduler::PreemptionDelta(const Task& candidate, const Task& running, int cpu) const {
  // 2.6 semantics: try_to_wake_up() only reschedules the CPU owning the
  // woken task's run queue, and only when the task's priority index beats
  // the running one's. An expired SCHED_OTHER task never preempts.
  if (HomeCpu(candidate) != cpu) {
    return 0;
  }
  if (!PolicyIsRealtime(candidate.policy) && candidate.counter == 0) {
    return 0;
  }
  return static_cast<long>(PrioIndexOf(running)) - static_cast<long>(PrioIndexOf(candidate));
}

std::string O1Scheduler::DebugString() const {
  std::string out;
  for (int cpu = 0; cpu < config_.num_cpus; ++cpu) {
    const RunQueue& rq = queues_[static_cast<size_t>(cpu)];
    out += StrFormat("cpu%d count=%zu active=%d", cpu, QueueDepth(cpu), rq.active);
    static const char* const kSlotName[kNumArrays] = {"act", "exp"};
    for (int pass = 0; pass < kNumArrays; ++pass) {
      const int slot = pass == 0 ? rq.active : (rq.active ^ 1);
      const PrioArray& arr = rq.arrays[slot];
      out += StrFormat(" | %s:", kSlotName[pass]);
      for (int prio = 0; prio < kPrioLevels; ++prio) {
        if (!arr.bitmap.Test(prio)) {
          continue;
        }
        const ListHead* head = &arr.lists[prio];
        for (const ListHead* node = head->next; node != head; node = node->next) {
          const Task* p = ListEntry<Task, &Task::run_list>(const_cast<ListHead*>(node));
          out += StrFormat(" [%d%s]", prio, p->has_cpu != 0 ? "*" : "");
        }
      }
    }
    out += "\n";
  }
  out += StrFormat("swaps=%llu balances=%llu pulls=%llu nr_running=%zu",
                   (unsigned long long)stats_.array_swaps,
                   (unsigned long long)stats_.load_balance_calls,
                   (unsigned long long)stats_.pull_migrations, nr_running_);
  return out;
}

void O1Scheduler::CheckInvariants() const {
  size_t total = 0;
  for (int cpu = 0; cpu < config_.num_cpus; ++cpu) {
    const RunQueue& rq = queues_[static_cast<size_t>(cpu)];
    ELSC_VERIFY(rq.active == 0 || rq.active == 1);
    for (int slot = 0; slot < kNumArrays; ++slot) {
      const PrioArray& arr = rq.arrays[slot];
      size_t count = 0;
      for (int prio = 0; prio < kPrioLevels; ++prio) {
        const ListHead* head = &arr.lists[prio];
        ELSC_VERIFY_MSG(arr.bitmap.Test(prio) == !ListEmpty(head),
                        "o1 bitmap disagrees with list contents");
        for (const ListHead* node = head->next; node != head; node = node->next) {
          ELSC_VERIFY(node->next->prev == node);
          ELSC_VERIFY(node->prev->next == node);
          const Task* p = ListEntry<Task, &Task::run_list>(const_cast<ListHead*>(node));
          ELSC_VERIFY_MSG(p->rq_slot == EncodeIndex(cpu, slot, prio),
                          "o1 task filed under a stale index");
          // An executing task whose priority changed is re-filed lazily at
          // its next schedule(); everything else must be filed correctly.
          ELSC_VERIFY_MSG(PrioIndexOf(*p) == prio || p->has_cpu != 0,
                          "o1 task in the wrong priority list");
          // Mid-block window: see LinuxScheduler::CheckInvariants.
          ELSC_VERIFY_MSG(p->state == TaskState::kRunning || p->has_cpu != 0,
                          "non-runnable task on a run queue");
          ++count;
          ELSC_VERIFY_MSG(count <= nr_running_ + 1, "o1 list corrupt (cycle?)");
        }
      }
      ELSC_VERIFY_MSG(count == arr.count, "o1 array count out of sync");
      total += count;
    }
  }
  ELSC_VERIFY_MSG(total == nr_running_, "nr_running out of sync with queues");
}

}  // namespace elsc
