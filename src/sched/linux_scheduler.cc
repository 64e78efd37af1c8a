#include "src/sched/linux_scheduler.h"

#include <algorithm>
#include <bit>

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

// One lane per CPU plus lane 0. The slots' cpu field is 16-bit.
size_t LaneCount(int num_cpus) {
  ELSC_CHECK(num_cpus >= 1 && num_cpus <= INT16_MAX);
  return static_cast<size_t>(num_cpus) + 1;
}

}  // namespace

LinuxScheduler::LinuxScheduler(const CostModel& cost_model, TaskList* all_tasks,
                               const SchedulerConfig& config)
    : Scheduler(cost_model, all_tasks, config),
      lanes_(LaneCount(config.num_cpus)),
      bounds_(lanes_.size(), kHeld),
      lane_bits_(std::bit_width(static_cast<unsigned>(config.num_cpus))),
      front_stamp_(kStampMid),
      back_stamp_(kStampMid - 1),
      held_(static_cast<size_t>(config.num_cpus), nullptr) {}

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

inline void LinuxScheduler::Push(const ScanSlot& slot) {
  const size_t lane_index = static_cast<size_t>(slot.cpu + 1);
  std::vector<ScanSlot>& lane = lanes_[lane_index];
  const size_t index = lane.size();
  ELSC_CHECK_MSG(index >> (31 - lane_bits_) == 0, "scan lane index overflows Task::rq_slot");
  slot.task->rq_slot = EncodeSlot(lane_index, index);
  lane.push_back(slot);
  bounds_[lane_index] = std::max(bounds_[lane_index], slot.weight);
}

inline void LinuxScheduler::Erase(size_t lane, size_t index) {
  std::vector<ScanSlot>& slots = lanes_[lane];
  slots[index] = slots.back();
  slots[index].task->rq_slot = EncodeSlot(lane, index);
  slots.pop_back();
}

inline bool LinuxScheduler::Rekey(size_t lane, size_t index) {
  ScanSlot& slot = lanes_[lane][index];
  StoreKey(slot);
  if (static_cast<size_t>(slot.cpu + 1) == lane) {
    bounds_[lane] = std::max(bounds_[lane], slot.weight);
    return false;
  }
  const ScanSlot moved = slot;  // The task migrated, or lost or won its CPU's bonus.
  Erase(lane, index);
  Push(moved);
  return true;
}

void LinuxScheduler::Hold(Task* task, int cpu) {
  ScanSlot& slot = SlotOf(task);
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
  ScanSlot& slot = SlotOf(task);
  ELSC_VERIFY_MSG(slot.weight == kHeld, "releasing a task no CPU holds");
  if (slot.cpu >= 0) {
    held_[static_cast<size_t>(slot.cpu)] = nullptr;
  }
  --held_count_;
  Rekey(LaneOfSlot(task->rq_slot), IndexOfSlot(task->rq_slot));
}

uint32_t LinuxScheduler::FrontStamp() {
  if (front_stamp_ == 0) {
    RenumberStamps(kStampMid - static_cast<uint32_t>(nr_running_ / 2));
  }
  return --front_stamp_;
}

uint32_t LinuxScheduler::BackStamp() {
  if (back_stamp_ == UINT32_MAX) {
    RenumberStamps(kStampMid - static_cast<uint32_t>(nr_running_ / 2));
  }
  return ++back_stamp_;
}

std::vector<Task*> LinuxScheduler::QueueOrder() const {
  std::vector<const ScanSlot*> slots;
  slots.reserve(nr_running_);
  for (const std::vector<ScanSlot>& lane : lanes_) {
    for (const ScanSlot& slot : lane) {
      slots.push_back(&slot);
    }
  }
  std::sort(slots.begin(), slots.end(),
            [](const ScanSlot* a, const ScanSlot* b) { return a->stamp < b->stamp; });
  std::vector<Task*> order;
  order.reserve(slots.size());
  for (const ScanSlot* slot : slots) {
    order.push_back(slot->task);
  }
  return order;
}

void LinuxScheduler::RenumberStamps(uint32_t first) {
  ELSC_VERIFY(uint64_t{first} + nr_running_ <= uint64_t{UINT32_MAX} + 1);
  uint32_t stamp = first;
  for (Task* task : QueueOrder()) {
    SlotOf(task).stamp = stamp++;
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
  ScanSlot slot{task, &kNoMm, stamp, kHeld, -1};
  if (task == released_) {
    released_queued_ = true;  // Woken between its pick and its dispatch: not held.
    StoreKey(slot);
  } else if (task->has_cpu != 0) {
    ++held_count_;  // Added while running on some CPU.
  } else {
    StoreKey(slot);
  }
  Push(slot);
}

void LinuxScheduler::DelFromRunQueue(Task* task) {
  ELSC_VERIFY_MSG(task->OnRunQueue(), "del_from_runqueue: task not on run queue");
  --nr_running_;
  task->run_list.next = nullptr;
  task->run_list.prev = nullptr;
  const size_t lane = LaneOfSlot(task->rq_slot);
  const size_t index = IndexOfSlot(task->rq_slot);
  const ScanSlot& slot = lanes_[lane][index];
  if (slot.weight == kHeld) {
    if (slot.cpu >= 0) {
      held_[static_cast<size_t>(slot.cpu)] = nullptr;
    }
    --held_count_;
  }
  if (task == released_) {
    released_queued_ = false;
  }
  Erase(lane, index);
  task->rq_slot = -1;
}

void LinuxScheduler::MoveFirstRunQueue(Task* task) {
  ELSC_VERIFY(task->OnRunQueue());
  const uint32_t stamp = FrontStamp();
  SlotOf(task).stamp = stamp;
}

void LinuxScheduler::MoveLastRunQueue(Task* task) {
  ELSC_VERIFY(task->OnRunQueue());
  const uint32_t stamp = BackStamp();
  SlotOf(task).stamp = stamp;
}

Task* LinuxScheduler::Schedule(int this_cpu, Task* prev, CostMeter& meter) {
  meter.ChargeEntry();
  meter.ChargeLock();

  // Bring the held set up to date (see held_ in the header).
  if (released_queued_) {
    Rekey(LaneOfSlot(released_->rq_slot), IndexOfSlot(released_->rq_slot));
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
    // it and prev's seed value `c` (ties lose to the earlier task and to
    // prev). Each slot's key is (goodness - kHeld) << 32 | ~stamp, and
    // stamps strictly increase front to back, so that task holds the
    // greatest key, if that key beats `best`'s seed, which no slot of
    // goodness <= c beats. Held slots score below kUnschedulableWeight, so
    // they never win.
    //
    // The lanes partition the slots, so reading only the lanes that can
    // still hold the greatest key finds the same task: this CPU's lane
    // first, where every slot earns the affinity bonus, then each other
    // lane whose bound plus the mm bonus, with the best stamp any slot
    // could have, beats `best`. A lane that can only tie on goodness is
    // read, because an earlier stamp wins the tie. The examined set, every
    // queued task no CPU holds, is the walk's has_cpu == 0 set, and it is
    // charged once per pass whatever the scan read.
    uint64_t best = static_cast<uint64_t>(c - kHeld) << 32 | UINT32_MAX;
    const ScanSlot* pick = nullptr;
    // The least bound + bonus with which a lane can still hold a key above
    // `best`: the goodness its bound allows with the mm bonus must reach
    // best's, and pass it when best's stamp is one no slot precedes (prev's
    // seed, or stamp 0).
    long need = 0;
    auto update_need = [&best, &need] {
      need = static_cast<long>(best >> 32) + kHeld - kSameMmBonus +
             (static_cast<uint32_t>(best) == UINT32_MAX ? 1 : 0);
    };
    update_need();
    auto read = [this, &best, &pick, &update_need, &need, this_mm](size_t lane, long bonus) {
      if (bounds_[lane] + bonus < need) {
        return;
      }
      int16_t top = kHeld;
      for (const ScanSlot& s : lanes_[lane]) {
        const long g = s.weight + bonus + (s.mm == this_mm ? kSameMmBonus : 0);
        const uint64_t key = static_cast<uint64_t>(g - kHeld) << 32 | static_cast<uint32_t>(~s.stamp);
        pick = key > best ? &s : pick;
        best = key > best ? key : best;
        top = std::max(top, s.weight);
      }
      bounds_[lane] = top;
      update_need();
    };
    if (nr_running_ > held_count_) {  // Else every queued task runs on some CPU.
      read(static_cast<size_t>(this_cpu) + 1, kProcChangePenalty);
      // This CPU's lane comes round again and is skipped: its best slot beat
      // its bound + 1, or its bound + 16 did not beat `best`.
      for (size_t lane = 0; lane < lanes_.size(); ++lane) {
        read(lane, 0);
      }
    }
    meter.ChargeExamine(nr_running_ - held_count_);
    if (pick != nullptr) {
      c = static_cast<long>(best >> 32) + kHeld;
      next = pick->task;
    }

    // Do we need to re-calculate counters? c == 0 means a runnable task was
    // found but every candidate's quantum is exhausted (or the yielded prev
    // was the only choice). An *empty* run queue leaves c at -1000 and
    // schedules the idle task instead (paper footnote 1).
    if (c == 0) {
      meter.ChargeRecalc(all_tasks_->size());
      RecalculateCounters();
      // Re-file every slot no CPU holds: its key changed, and a task whose
      // counter was 0 now earns its CPU's bonus.
      for (size_t lane = 0; lane < lanes_.size(); ++lane) {
        const std::vector<ScanSlot>& slots = lanes_[lane];
        for (size_t i = 0; i < slots.size();) {
          if (slots[i].weight == kHeld || !Rekey(lane, i)) {
            ++i;  // Else slot i is the lane's old last slot, moved into the hole.
          }
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
  const std::vector<Task*> order = QueueOrder();
  return std::vector<const Task*>(order.begin(), order.end());
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
  // The lanes must hold exactly nr_running queued tasks, each pointing back
  // at its own slot and marked queued, and every member must be
  // TASK_RUNNING. Stamps must be distinct and inside [front_stamp_,
  // back_stamp_], so they order the queue the way the stamp helpers assume
  // (the property the Schedule() equivalence relies on).
  // The cached keys, the lanes and the held set are the other half of that
  // equivalence: a slot no CPU holds carries its task's current key in its
  // key's lane (the released prev excepted until the next Schedule()
  // rebuilds it), no slot's weight exceeds its lane's bound, a task running
  // on a CPU is held (the released prev excepted: it runs until its
  // dispatch), and each held slot was held by a pick or added running.
  size_t queued = 0;
  size_t held = 0;
  for (size_t lane = 0; lane < lanes_.size(); ++lane) {
    const std::vector<ScanSlot>& slots = lanes_[lane];
    for (size_t i = 0; i < slots.size(); ++i) {
      const ScanSlot& slot = slots[i];
      const Task* p = slot.task;
      ELSC_VERIFY_MSG(p->rq_slot == EncodeSlot(lane, i) && p->run_list.next == &p->run_list &&
                          p->run_list.prev == &p->run_list,
                      "scan slot out of sync with its task");
      // A task that just marked itself INTERRUPTIBLE stays on the queue until
      // its own schedule() call removes it (it still has the CPU meanwhile) —
      // exactly the kernel's window between set_current_state and schedule().
      ELSC_VERIFY_MSG(p->state == TaskState::kRunning || p->has_cpu != 0,
                      "non-runnable task on run queue");
      ELSC_VERIFY_MSG(slot.stamp >= front_stamp_ && slot.stamp <= back_stamp_,
                      "scan stamp outside the queue's stamp range");
      ELSC_VERIFY_MSG(slot.weight <= bounds_[lane], "scan slot's weight above its lane's bound");
      if (slot.weight == kHeld) {
        ++held;
        ELSC_VERIFY_MSG(slot.cpu >= 0 ? held_[static_cast<size_t>(slot.cpu)] == p : p->has_cpu != 0,
                        "held task neither returned by a pick nor added running");
      } else if (p != released_) {
        ScanSlot fresh = slot;
        StoreKey(fresh);
        ELSC_VERIFY_MSG(fresh.weight == slot.weight && fresh.cpu == slot.cpu && fresh.mm == slot.mm,
                        "scan key out of date with its task's goodness fields");
        ELSC_VERIFY_MSG(static_cast<size_t>(slot.cpu + 1) == lane,
                        "scan slot outside its key's lane");
        ELSC_VERIFY_MSG(p->has_cpu == 0, "task running on a CPU is not held");
      }
    }
    queued += slots.size();
  }
  ELSC_VERIFY_MSG(queued == nr_running_, "nr_running out of sync with run queue length");
  const std::vector<Task*> order = QueueOrder();
  for (size_t k = 1; k < order.size(); ++k) {
    ELSC_VERIFY_MSG(SlotOf(order[k - 1]).stamp < SlotOf(order[k]).stamp,
                    "two queued tasks share a stamp");
  }
  ELSC_VERIFY_MSG(held == held_count_, "held count out of sync with held slots");
  for (size_t cpu = 0; cpu < held_.size(); ++cpu) {
    const Task* p = held_[cpu];
    ELSC_VERIFY_MSG(p == nullptr || (p->OnRunQueue() && SlotOf(p).weight == kHeld &&
                                     SlotOf(p).cpu == static_cast<int16_t>(cpu)),
                    "held_ names a task its CPU does not hold");
  }
  ELSC_VERIFY_MSG(!released_queued_ || released_->OnRunQueue(), "released task left the queue");
}

}  // namespace elsc
