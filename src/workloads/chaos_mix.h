// Chaos-mix workload: a seeded, finite stew of every task species the kernel
// model supports — spinners, sched_yield hammerers, interactive sleepers,
// wait-queue sleepers (driven by a periodic wake pulse), fork()ing parents,
// and short real-time tasks.
//
// This is the substrate the fault-injection and invariant-audit tests run
// on: it deliberately exercises every scheduler path (quantum expiry, yield
// penalty, wake preemption, fork quantum split, RT supremacy, exit) while
// still being guaranteed to terminate, so Done() can simply wait for the
// task population to drain to zero. Everything is derived from the config
// seed; the same seed always produces the identical event sequence.

#ifndef SRC_WORKLOADS_CHAOS_MIX_H_
#define SRC_WORKLOADS_CHAOS_MIX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/rng.h"
#include "src/kernel/wait_queue.h"
#include "src/smp/machine.h"

namespace elsc {

struct ChaosMixConfig {
  uint64_t seed = 1;
  int spinners = 6;     // Finite CPU hogs, 5-20 ms of work each.
  int yielders = 4;     // Burst + sched_yield loops (JVM spin locks).
  int interactive = 5;  // Burst/sleep cycles, 4-12 iterations.
  int waiters = 4;      // Block on the shared wait queue, exit after 2-4 wakes.
  int forkers = 2;      // Each forks `forker_children` short-lived children.
  int forker_children = 3;
  int rt_tasks = 1;     // SCHED_RR spinners with a few ms of work.
  // Period of the wake pulse that drains the waiters.
  Cycles wake_period = MsToCycles(7);
};

struct ChaosMixResult {
  bool completed = false;      // Every task (workload + injected) exited.
  uint64_t tasks_spawned = 0;  // Machine-wide, fault-injected tasks included.
};

class ChaosMixWorkload {
 public:
  ChaosMixWorkload(Machine& machine, const ChaosMixConfig& config);
  ~ChaosMixWorkload();

  ChaosMixWorkload(const ChaosMixWorkload&) = delete;
  ChaosMixWorkload& operator=(const ChaosMixWorkload&) = delete;

  void Setup();
  // The population drains to zero: every behavior is finite, and the wake
  // pulse keeps firing until the last waiter has been woken enough times.
  bool Done() const;
  ChaosMixResult Result() const;

  const ChaosMixConfig& config() const { return config_; }

 private:
  friend class ChaosForker;

  void WakePulse();
  TaskBehavior* Adopt(std::unique_ptr<TaskBehavior> behavior);

  Machine& machine_;
  ChaosMixConfig config_;
  Rng rng_;
  WaitQueue queue_;
  std::vector<std::unique_ptr<TaskBehavior>> behaviors_;
  struct WaiterSlot {
    const class WaiterBehavior* behavior;
    uint64_t wakes_needed;
  };
  std::vector<WaiterSlot> waiters_;
};

}  // namespace elsc

#endif  // SRC_WORKLOADS_CHAOS_MIX_H_
