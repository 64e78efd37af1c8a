// A timing decorator for any Scheduler, installed through
// MachineConfig::scheduler_factory.
//
// It forwards every call to the wrapped scheduler and times the calls from
// outside with std::chrono::steady_clock: one sample per schedule() pick and
// one per run-queue operation (Add/Del/MoveFirst/MoveLast), into a SchedSpans
// the caller owns. Each span includes one clock read. It never changes
// what the wrapped scheduler sees or returns, so a decorated run must produce
// the same RunStatsDigest as an undecorated one (the benchmark checks this).
//
// Statistics: the Machine writes its share of SchedStats (lock wait, per-CPU
// lock accounting, preemption IPIs) through mutable_stats() of the scheduler
// it holds, which is this decorator; the wrapped scheduler records its own
// picks. MergedStats() adds the two, giving the counters an undecorated run
// would have. nr_running is mirrored after every run-queue change because the
// Machine reads it for the load average.

#ifndef PERFBENCH_TIMING_SCHEDULER_H_
#define PERFBENCH_TIMING_SCHEDULER_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/api/simulation.h"
#include "src/sched/scheduler.h"

namespace perfbench {

// Span totals collected by a TimingScheduler. Owned by the caller, so they
// outlive the Machine that owns the decorator, and shared by several runs
// when a caller wants one aggregate.
struct SchedSpans {
  std::vector<uint32_t> pick_ns;  // One sample per schedule() call.
  int64_t pick_total_ns = 0;
  uint64_t queue_ops = 0;         // Add/Del/MoveFirst/MoveLast calls.
  int64_t queue_total_ns = 0;
};

class TimingScheduler : public elsc::Scheduler {
 public:
  using Clock = std::chrono::steady_clock;

  TimingScheduler(std::unique_ptr<elsc::Scheduler> inner, SchedSpans* spans,
                  const elsc::CostModel& cost_model, elsc::TaskList* all_tasks,
                  const elsc::SchedulerConfig& config)
      : Scheduler(cost_model, all_tasks, config), inner_(std::move(inner)), spans_(spans) {}

  const char* name() const override { return inner_->name(); }
  bool uses_global_lock() const override { return inner_->uses_global_lock(); }

  void AddToRunQueue(elsc::Task* task) override {
    const auto t0 = Clock::now();
    inner_->AddToRunQueue(task);
    EndQueueOp(t0);
  }
  void DelFromRunQueue(elsc::Task* task) override {
    const auto t0 = Clock::now();
    inner_->DelFromRunQueue(task);
    EndQueueOp(t0);
  }
  void MoveFirstRunQueue(elsc::Task* task) override {
    const auto t0 = Clock::now();
    inner_->MoveFirstRunQueue(task);
    EndQueueOp(t0);
  }
  void MoveLastRunQueue(elsc::Task* task) override {
    const auto t0 = Clock::now();
    inner_->MoveLastRunQueue(task);
    EndQueueOp(t0);
  }

  elsc::Task* Schedule(int this_cpu, elsc::Task* prev, elsc::CostMeter& meter) override {
    const auto t0 = Clock::now();
    elsc::Task* next = inner_->Schedule(this_cpu, prev, meter);
    const auto ns = Nanos(Clock::now() - t0);
    spans_->pick_ns.push_back(static_cast<uint32_t>(std::min<int64_t>(ns, UINT32_MAX)));
    spans_->pick_total_ns += ns;
    nr_running_ = inner_->nr_running();
    return next;
  }

  long PreemptionDelta(const elsc::Task& candidate, const elsc::Task& running,
                       int cpu) const override {
    return inner_->PreemptionDelta(candidate, running, cpu);
  }
  void CheckInvariants() const override { inner_->CheckInvariants(); }
  std::string DebugString() const override { return inner_->DebugString(); }

  // The SchedStats an undecorated run would report (see file comment).
  elsc::SchedStats MergedStats() const {
    elsc::RunStats merged;
    merged.sched = stats();
    elsc::RunStats picks;
    picks.sched = inner_->stats();
    elsc::MergeRunStats(&merged, picks);
    return merged.sched;
  }

 private:
  static int64_t Nanos(Clock::duration d) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  }
  void EndQueueOp(Clock::time_point t0) {
    spans_->queue_total_ns += Nanos(Clock::now() - t0);
    ++spans_->queue_ops;
    nr_running_ = inner_->nr_running();
  }

  std::unique_ptr<elsc::Scheduler> inner_;
  SchedSpans* spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_SCHEDULER_H_
