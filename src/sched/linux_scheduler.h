// The stock Linux 2.3.99-pre4 scheduler (paper §3), ported from
// kernel/sched.c to the simulation's Scheduler interface.
//
// The kernel's run queue is a single circular doubly-linked list of all
// TASK_RUNNING tasks, kept in no particular order; newly woken tasks are
// added at the front. schedule() evaluates goodness() for every task on the
// queue that is not currently executing on a processor and picks the
// maximum; when no task has goodness greater than zero (all runnable quanta
// exhausted, or the previous task yielded and nothing else is schedulable),
// it recalculates the counter of every task in the system and searches
// again. This linear, redundant evaluation is the scalability problem the
// paper attacks.
//
// Here the run queue is a set of scan lanes of slots, one slot per queued
// task. A slot whose task earns a CPU's affinity bonus lives in that CPU's
// lane, cpu + 1; lane 0 holds the slots that earn no such bonus (yielded,
// exhausted and real-time tasks, and every task on a UP kernel). Each
// slot's stamp holds the task's place in the kernel's list order (see
// ScanSlot), so a lane keeps no order of its own and removal is swap-pop.
// Task::rq_slot holds a queued task's lane and its index there, as
// index << lane_bits_ | lane (-1 off the queue), and a queued task's
// run_list points at itself, so OnRunQueue() holds.

#ifndef SRC_SCHED_LINUX_SCHEDULER_H_
#define SRC_SCHED_LINUX_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "src/sched/scheduler.h"

namespace elsc {

class LinuxScheduler : public Scheduler {
 public:
  LinuxScheduler(const CostModel& cost_model, TaskList* all_tasks, const SchedulerConfig& config);

  const char* name() const override { return "linux-2.3.99"; }

  void AddToRunQueue(Task* task) override;
  void DelFromRunQueue(Task* task) override;
  void MoveFirstRunQueue(Task* task) override;
  void MoveLastRunQueue(Task* task) override;

  Task* Schedule(int this_cpu, Task* prev, CostMeter& meter) override;

  void CheckInvariants() const override;

  // Figure 1a: the run queue in list order, front to back, with each task's
  // static goodness.
  std::string DebugString() const override;

  // Test/diagnostic access: front-to-back snapshot of the queue.
  std::vector<const Task*> QueueSnapshot() const;

  // Restamps the queue front to back with first, first + 1, ... The stamp
  // helpers call it when a stamp would wrap; tests call it to put the
  // stamps at either end of their range.
  void RenumberStamps(uint32_t first);

 private:
  // One queued task. The scan walks the lanes' dense arrays of these and
  // never dereferences a Task, because each slot caches what Goodness()
  // reads, folded so that
  //   Goodness(task, cpu, mm, smp) == weight + (cpu == slot.cpu ? 15 : 0)
  //                                          + (mm == slot.mm ? 1 : 0)
  // (the paper's ELSC design keeps the same static part, §5). Host-time
  // only: the pick and the examine count are those of the list walk (see
  // Schedule()).
  //
  // A task some CPU holds (see held_) is skipped by the kernel loop; its
  // slot carries weight kHeld, which never wins, stays in the lane it was
  // held in, and its cpu names the holder (-1 for a task added while
  // running). A held task's fields change freely (ticks, fork, yield, RR
  // refill); its key is rebuilt, and its slot moved to the key's lane, when
  // it is released. A waiting task's fields change only through re-files
  // (Del + Add) and the scheduler's own recalculation, which rebuild its
  // key too.
  //
  // `stamp` is the only record of list order, kept without shifting any
  // array: stamps strictly increase from list front to list back (front
  // inserts take --front_stamp_, tail moves take ++back_stamp_), so "first
  // task with the strictly greatest goodness in list order" equals "task
  // with the lexicographically greatest (goodness, -stamp)", whichever lane
  // it sits in. QueueOrder() sorts by stamp where the order itself is read
  // (snapshots, DebugString, renumbering). CheckInvariants() verifies every
  // slot against its task.
  struct ScanSlot {
    Task* task;
    const MmStruct* mm;  // Never nullptr: a task without mm folds its bonus into weight.
    uint32_t stamp;
    int16_t weight;
    int16_t cpu;
  };
  static_assert(sizeof(ScanSlot) == 24, "keep the scan slots at 24 B per task");
  static constexpr int16_t kHeld = INT16_MIN;

  // Rebuilds `slot`'s key from its task's fields.
  void StoreKey(ScanSlot& slot) const;
  // Task::rq_slot for the slot at `index` in lane `lane`.
  int EncodeSlot(size_t lane, size_t index) const {
    return static_cast<int>(index << lane_bits_ | lane);
  }
  size_t LaneOfSlot(int rq_slot) const {
    return static_cast<size_t>(rq_slot) & ((size_t{1} << lane_bits_) - 1);
  }
  size_t IndexOfSlot(int rq_slot) const { return static_cast<size_t>(rq_slot) >> lane_bits_; }
  ScanSlot& SlotOf(const Task* task) {
    return lanes_[LaneOfSlot(task->rq_slot)][IndexOfSlot(task->rq_slot)];
  }
  const ScanSlot& SlotOf(const Task* task) const {
    return lanes_[LaneOfSlot(task->rq_slot)][IndexOfSlot(task->rq_slot)];
  }
  // Files `slot` at the back of the lane of its cpu + 1, raising the bound.
  void Push(const ScanSlot& slot);
  // Swap-pops the slot at `index` of lane `lane`; the slot moved into the
  // hole keeps its stamp and key.
  void Erase(size_t lane, size_t index);
  // Rebuilds the key of the slot at `index` of lane `lane` and files it in
  // its key's lane: in place, or moved to the back of another lane. Returns
  // whether it moved.
  bool Rekey(size_t lane, size_t index);
  // `task` (queued) becomes held by `cpu`; Release makes it a candidate
  // again with a fresh key.
  void Hold(Task* task, int cpu);
  void Release(Task* task);
  uint32_t FrontStamp();
  uint32_t BackStamp();
  // The queued tasks, front of the queue first.
  std::vector<Task*> QueueOrder() const;

  // lanes_[cpu + 1] holds the slots whose key names cpu, lanes_[0] those
  // whose key names none (and the slots added held while running).
  std::vector<std::vector<ScanSlot>> lanes_;
  // bounds_[lane] >= the weight of every slot in lanes_[lane]. Inserts and
  // re-keys raise it; a scan that reads the lane sets it to the lane's exact
  // maximum, so removals and holds leave it stale-high until then.
  // Schedule() skips a lane whose bound shows that no slot in it can beat
  // the best key found so far. The bounds sit apart from the lanes so that
  // the skip test walks 2 bytes per lane.
  std::vector<int16_t> bounds_;
  // Task::rq_slot keeps a lane in its low lane_bits_ bits and the index in
  // the 31 - lane_bits_ above them; Push() fails an ELSC_CHECK rather than
  // wrap an index that does not fit.
  int lane_bits_;
  size_t held_count_ = 0;  // Slots with weight kHeld.
  uint32_t front_stamp_;  // <= every live stamp; next front insert gets --front_stamp_.
  uint32_t back_stamp_;   // >= every live stamp; next tail move gets ++back_stamp_.

  // The held set stands in for has_cpu == 1 and follows from Schedule()
  // calls alone. held_[cpu] is the queued task cpu's latest pick returned
  // (or nullptr): it stays held until cpu's next Schedule(). If that call's
  // prev is not held_[cpu] (a caller that picked without dispatching, or
  // one that overrode the pick), held_[cpu] is released and prev held
  // instead. A pick that is not prev releases prev.
  std::vector<Task*> held_;
  // The prev the latest pick released, until the next Schedule(). Until the
  // Machine dispatches the pick, prev still has has_cpu == 1: a priority or
  // policy change then does not re-file it (its key goes stale, so the next
  // Schedule() rebuilds it), and a wakeup re-adds it with has_cpu == 1 (it
  // is not held: the dispatch clears has_cpu before any other pick).
  Task* released_ = nullptr;
  bool released_queued_ = false;  // released_ is on the queue.
};

}  // namespace elsc

#endif  // SRC_SCHED_LINUX_SCHEDULER_H_
