// Scheduler construction by name, used by the public API, examples, and the
// benchmark harness ("reg" vs "elsc" in the paper's charts).

#ifndef SRC_SCHED_FACTORY_H_
#define SRC_SCHED_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/sched/elsc_scheduler.h"
#include "src/sched/scheduler.h"

namespace elsc {

enum class SchedulerKind {
  kLinux,       // The stock Linux 2.3.99-pre4 scheduler ("reg" in the paper).
  kElsc,        // The ELSC table scheduler.
  kHeap,        // The future-work heap alternative.
  kMultiQueue,  // The future-work per-CPU multi-queue alternative.
  kO1,          // The Linux 2.6 O(1) scheduler (per-CPU active/expired arrays).
};

// Looks up "linux"/"reg"/"stock"/"current", "elsc", "heap",
// "multiqueue"/"mq" and "o1"; false for any other name.
bool ParseSchedulerKind(const std::string& name, SchedulerKind* kind);
// The same lookup, aborting on an unknown name.
SchedulerKind SchedulerKindFromName(const std::string& name);
const char* SchedulerKindName(SchedulerKind kind);

// All kinds, for sweeps.
std::vector<SchedulerKind> AllSchedulerKinds();

std::unique_ptr<Scheduler> MakeScheduler(SchedulerKind kind, const CostModel& cost_model,
                                         TaskList* all_tasks, const SchedulerConfig& config,
                                         const ElscOptions& elsc_options = ElscOptions{});

}  // namespace elsc

#endif  // SRC_SCHED_FACTORY_H_
