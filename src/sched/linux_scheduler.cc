#include "src/sched/linux_scheduler.h"

#include <algorithm>
#include <numeric>

#include "src/base/assert.h"
#include "src/kernel/policy.h"
#include "src/base/string_util.h"
#include "src/sched/goodness.h"

namespace elsc {

namespace {

// The mm of every slot that earns no kSameMmBonus: no task's mm points here.
constexpr MmStruct kNoMm{};
// Stamps start in the middle of their range so both ends have room.
constexpr uint32_t kStampMid = uint32_t{1} << 31;

}  // namespace

LinuxScheduler::LinuxScheduler(const CostModel& cost_model, TaskList* all_tasks,
                               const SchedulerConfig& config)
    : Scheduler(cost_model, all_tasks, config),
      front_stamp_(kStampMid),
      back_stamp_(kStampMid - 1),
      held_(static_cast<size_t>(config.num_cpus), nullptr) {
  ELSC_CHECK(config.num_cpus >= 1 && config.num_cpus <= INT16_MAX);
}

// Defined before its callers so the queue operations inline it.
inline void LinuxScheduler::StoreKey(ScanSlot& slot) const {
  const Task& p = *slot.task;
  // Goodness() without its two bonuses. Only a SCHED_OTHER task with quantum
  // left earns them, and one without mm always earns the mm bonus.
  long weight = 0;
  slot.mm = &kNoMm;
  slot.cpu = -1;
  if (PolicyHasYield(p.policy)) {
    weight = -1;
  } else if (PolicyIsRealtime(p.policy)) {
    weight = kRealtimeBase + p.rt_priority;
  } else if (p.counter != 0) {
    weight = p.counter + p.priority;
    if (p.mm == nullptr) {
      weight += kSameMmBonus;
    } else {
      slot.mm = p.mm;
    }
    if (config_.smp) {
      slot.cpu = static_cast<int16_t>(p.processor);
    }
  }
  ELSC_VERIFY_MSG(weight > kHeld && weight <= INT16_MAX, "goodness outside the scan key's range");
  slot.weight = static_cast<int16_t>(weight);
}

void LinuxScheduler::Hold(Task* task, int cpu) {
  ScanSlot& slot = scan_[static_cast<size_t>(task->rq_slot)];
  if (slot.weight != kHeld) {
    slot.weight = kHeld;
    ++held_count_;
  } else if (slot.cpu >= 0) {
    held_[static_cast<size_t>(slot.cpu)] = nullptr;  // Another CPU's prev, taken over.
  }
  slot.cpu = static_cast<int16_t>(cpu);
  held_[static_cast<size_t>(cpu)] = task;
}

void LinuxScheduler::Release(Task* task) {
  ScanSlot& slot = scan_[static_cast<size_t>(task->rq_slot)];
  ELSC_VERIFY_MSG(slot.weight == kHeld, "releasing a task no CPU holds");
  if (slot.cpu >= 0) {
    held_[static_cast<size_t>(slot.cpu)] = nullptr;
  }
  --held_count_;
  StoreKey(slot);
}

uint32_t LinuxScheduler::FrontStamp() {
  if (front_stamp_ == 0) {
    RenumberStamps(kStampMid - static_cast<uint32_t>(scan_.size() / 2));
  }
  return --front_stamp_;
}

uint32_t LinuxScheduler::BackStamp() {
  if (back_stamp_ == UINT32_MAX) {
    RenumberStamps(kStampMid - static_cast<uint32_t>(scan_.size() / 2));
  }
  return ++back_stamp_;
}

std::vector<size_t> LinuxScheduler::QueueOrder() const {
  std::vector<size_t> order(scan_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [this](size_t a, size_t b) { return scan_[a].stamp < scan_[b].stamp; });
  return order;
}

void LinuxScheduler::RenumberStamps(uint32_t first) {
  ELSC_VERIFY(uint64_t{first} + scan_.size() <= uint64_t{UINT32_MAX} + 1);
  uint32_t stamp = first;
  for (size_t i : QueueOrder()) {
    scan_[i].stamp = stamp++;
  }
  front_stamp_ = first;
  back_stamp_ = stamp - 1;
}

void LinuxScheduler::AddToRunQueue(Task* task) {
  ELSC_VERIFY_MSG(!task->OnRunQueue(), "add_to_runqueue: task already on run queue");
  // Newly created or awakened tasks go to the *front* of the run queue
  // (paper §3.2): list_add(&p->run_list, &runqueue_head). The front stamp
  // puts the task there; its run_list only marks it queued.
  const uint32_t stamp = FrontStamp();
  task->run_list.next = &task->run_list;
  task->run_list.prev = &task->run_list;
  ++nr_running_;
  ++stats_.wakeups;
  task->rq_slot = static_cast<int>(scan_.size());
  scan_.push_back(ScanSlot{task, &kNoMm, stamp, kHeld, -1});
  if (task == released_) {
    released_queued_ = true;  // Woken between its pick and its dispatch: not held.
  } else if (task->has_cpu != 0) {
    ++held_count_;  // Added while running on some CPU.
    return;
  }
  StoreKey(scan_.back());
}

void LinuxScheduler::DelFromRunQueue(Task* task) {
  ELSC_VERIFY_MSG(task->OnRunQueue(), "del_from_runqueue: task not on run queue");
  --nr_running_;
  task->run_list.next = nullptr;
  task->run_list.prev = nullptr;
  const size_t i = static_cast<size_t>(task->rq_slot);
  if (scan_[i].weight == kHeld) {
    if (scan_[i].cpu >= 0) {
      held_[static_cast<size_t>(scan_[i].cpu)] = nullptr;
    }
    --held_count_;
  }
  if (task == released_) {
    released_queued_ = false;
  }
  // Swap-pop the slot; the moved slot keeps its stamp and key.
  scan_[i] = scan_.back();
  scan_[i].task->rq_slot = static_cast<int>(i);
  scan_.pop_back();
  task->rq_slot = -1;
}

void LinuxScheduler::MoveFirstRunQueue(Task* task) {
  ELSC_VERIFY(task->OnRunQueue());
  const uint32_t stamp = FrontStamp();
  scan_[static_cast<size_t>(task->rq_slot)].stamp = stamp;
}

void LinuxScheduler::MoveLastRunQueue(Task* task) {
  ELSC_VERIFY(task->OnRunQueue());
  const uint32_t stamp = BackStamp();
  scan_[static_cast<size_t>(task->rq_slot)].stamp = stamp;
}

Task* LinuxScheduler::Schedule(int this_cpu, Task* prev, CostMeter& meter) {
  meter.ChargeEntry();
  meter.ChargeLock();

  // Bring the held set up to date (see held_ in the header).
  if (released_queued_) {
    StoreKey(scan_[static_cast<size_t>(released_->rq_slot)]);
  }
  released_ = nullptr;
  released_queued_ = false;
  Task* const held = held_[static_cast<size_t>(this_cpu)];
  if (held != prev) {
    if (held != nullptr) {
      Release(held);
    }
    if (prev != nullptr && prev->OnRunQueue()) {
      Hold(prev, this_cpu);
    }
  }

  const MmStruct* this_mm = prev != nullptr ? prev->mm : nullptr;

  bool rr_expired = false;
  if (prev != nullptr) {
    // Move an exhausted RR process to be last, refreshing its quantum. The
    // rotated task must lose exact goodness ties this once (POSIX round-
    // robin: the task goes to the tail and the next equal-priority task
    // runs), so its seed value is docked one point below.
    if (PolicyBase(prev->policy) == kSchedRr && prev->counter == 0) {
      prev->counter = prev->priority;
      MoveLastRunQueue(prev);
      rr_expired = true;
    }
    // A task that stopped being runnable leaves the run queue here.
    if (prev->state != TaskState::kRunning && prev->OnRunQueue()) {
      DelFromRunQueue(prev);
    }
  }

  while (true) {
    // Default pick: the idle task (returned as nullptr).
    Task* next = nullptr;
    long c = kUnschedulableWeight;

    // still_running: the previous task is the first candidate. If it has
    // yielded, prev_goodness() clears the bit and scores it zero so anything
    // else runnable beats it.
    if (prev != nullptr && prev->state == TaskState::kRunning) {
      c = PrevGoodness(*prev, this_cpu, this_mm, config_.smp);
      if (rr_expired) {
        --c;  // Lose ties against equal-rt_priority peers, beat everyone else.
      }
      next = prev;
    }

    // The heart of the stock scheduler: evaluate goodness() for every task
    // on the run queue that is not currently executing on a processor.
    //
    // Equivalence with the kernel's list walk: the walk keeps the *first*
    // task in list order whose goodness strictly exceeds everything before
    // it (ties lose to the earlier task and to prev's seed value `c`). Each
    // slot's key is (goodness - kHeld) << 32 | ~stamp, and stamps strictly
    // increase front to back, so that task holds the greatest key; comparing
    // its goodness against `c` with strict > once at the end preserves
    // prev's tie win. Held slots score below kUnschedulableWeight, so they
    // never win. The examined set, every queued task no CPU holds, is the
    // walk's has_cpu == 0 set, and it is charged once per pass.
    const ScanSlot* const slots = scan_.data();
    const size_t n = scan_.size();
    uint64_t best = 0;
    size_t best_i = 0;
    for (size_t i = 0; i < n; ++i) {
      const ScanSlot& s = slots[i];
      const long g = s.weight + (s.cpu == this_cpu ? kProcChangePenalty : 0) +
                     (s.mm == this_mm ? kSameMmBonus : 0);
      const uint64_t key = static_cast<uint64_t>(g - kHeld) << 32 | static_cast<uint32_t>(~s.stamp);
      best_i = key > best ? i : best_i;
      best = key > best ? key : best;
    }
    meter.ChargeExamine(n - held_count_);
    const long best_g = static_cast<long>(best >> 32) + kHeld;
    if (best_g > c) {
      c = best_g;
      next = slots[best_i].task;
    }

    // Do we need to re-calculate counters? c == 0 means a runnable task was
    // found but every candidate's quantum is exhausted (or the yielded prev
    // was the only choice). An *empty* run queue leaves c at -1000 and
    // schedules the idle task instead (paper footnote 1).
    if (c == 0) {
      meter.ChargeRecalc(all_tasks_->size());
      RecalculateCounters();
      for (ScanSlot& slot : scan_) {
        if (slot.weight != kHeld) {
          StoreKey(slot);
        }
      }
      continue;
    }

    meter.ChargeFinish();
    if (prev != nullptr && next != prev) {
      released_ = prev;
      released_queued_ = prev->OnRunQueue();
      if (released_queued_) {
        Release(prev);
      }
    }
    if (next != nullptr && next != prev) {
      Hold(next, this_cpu);
    }
    RecordPick(this_cpu, prev, next, meter);
    return next;
  }
}

std::vector<const Task*> LinuxScheduler::QueueSnapshot() const {
  std::vector<const Task*> out;
  for (size_t i : QueueOrder()) {
    out.push_back(scan_[i].task);
  }
  return out;
}

std::string LinuxScheduler::DebugString() const {
  // "listhead -> [g] -> [g] -> ..." — the run queue of Figure 1a, where the
  // labels are static goodness values.
  std::string out = "runqueue(listhead)";
  for (const Task* p : QueueSnapshot()) {
    out += StrFormat(" -> [%ld%s]", StaticGoodness(*p), p->has_cpu != 0 ? "*" : "");
  }
  out += StrFormat("  (nr_running=%zu)", nr_running_);
  return out;
}

void LinuxScheduler::CheckInvariants() const {
  // The scan array must hold exactly nr_running queued tasks, each pointing
  // back at its own slot and marked queued, and every member must be
  // TASK_RUNNING. Stamps must be distinct and inside [front_stamp_,
  // back_stamp_], so they order the queue the way the stamp helpers assume
  // (the property the Schedule() equivalence relies on).
  // The cached keys and the held set are the other half of that
  // equivalence: a slot no CPU holds carries its task's current key (the
  // released prev excepted until the next Schedule() rebuilds it), a task
  // running on a CPU is held (the released prev excepted: it runs until
  // its dispatch), and each held slot was held by a pick or added running.
  ELSC_VERIFY_MSG(scan_.size() == nr_running_, "nr_running out of sync with run queue length");
  size_t held = 0;
  for (size_t i = 0; i < scan_.size(); ++i) {
    const ScanSlot& slot = scan_[i];
    const Task* p = slot.task;
    ELSC_VERIFY_MSG(p->rq_slot == static_cast<int>(i) && p->run_list.next == &p->run_list &&
                        p->run_list.prev == &p->run_list,
                    "scan slot out of sync with its task");
    // A task that just marked itself INTERRUPTIBLE stays on the queue until
    // its own schedule() call removes it (it still has the CPU meanwhile) —
    // exactly the kernel's window between set_current_state and schedule().
    ELSC_VERIFY_MSG(p->state == TaskState::kRunning || p->has_cpu != 0,
                   "non-runnable task on run queue");
    ELSC_VERIFY_MSG(slot.stamp >= front_stamp_ && slot.stamp <= back_stamp_,
                    "scan stamp outside the queue's stamp range");
    if (slot.weight == kHeld) {
      ++held;
      ELSC_VERIFY_MSG(slot.cpu >= 0 ? held_[static_cast<size_t>(slot.cpu)] == p : p->has_cpu != 0,
                      "held task neither returned by a pick nor added running");
    } else if (p != released_) {
      ScanSlot fresh = slot;
      StoreKey(fresh);
      ELSC_VERIFY_MSG(fresh.weight == slot.weight && fresh.cpu == slot.cpu && fresh.mm == slot.mm,
                      "scan key out of date with its task's goodness fields");
      ELSC_VERIFY_MSG(p->has_cpu == 0, "task running on a CPU is not held");
    }
  }
  const std::vector<size_t> order = QueueOrder();
  for (size_t k = 1; k < order.size(); ++k) {
    ELSC_VERIFY_MSG(scan_[order[k - 1]].stamp < scan_[order[k]].stamp,
                    "two queued tasks share a stamp");
  }
  ELSC_VERIFY_MSG(held == held_count_, "held count out of sync with held slots");
  for (size_t cpu = 0; cpu < held_.size(); ++cpu) {
    const Task* p = held_[cpu];
    ELSC_VERIFY_MSG(p == nullptr || (p->OnRunQueue() &&
                                     scan_[static_cast<size_t>(p->rq_slot)].weight == kHeld &&
                                     scan_[static_cast<size_t>(p->rq_slot)].cpu ==
                                         static_cast<int16_t>(cpu)),
                    "held_ names a task its CPU does not hold");
  }
  ELSC_VERIFY_MSG(!released_queued_ || released_->OnRunQueue(), "released task left the queue");
}

}  // namespace elsc
