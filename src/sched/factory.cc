#include "src/sched/factory.h"

#include "src/base/assert.h"
#include "src/sched/heap_scheduler.h"
#include "src/sched/linux_scheduler.h"
#include "src/sched/multiqueue_scheduler.h"
#include "src/sched/o1_scheduler.h"

namespace elsc {

bool ParseSchedulerKind(const std::string& name, SchedulerKind* kind) {
  if (name == "linux" || name == "reg" || name == "stock" || name == "current") {
    *kind = SchedulerKind::kLinux;
  } else if (name == "elsc") {
    *kind = SchedulerKind::kElsc;
  } else if (name == "heap") {
    *kind = SchedulerKind::kHeap;
  } else if (name == "multiqueue" || name == "mq") {
    *kind = SchedulerKind::kMultiQueue;
  } else if (name == "o1") {
    *kind = SchedulerKind::kO1;
  } else {
    return false;
  }
  return true;
}

SchedulerKind SchedulerKindFromName(const std::string& name) {
  SchedulerKind kind = SchedulerKind::kLinux;
  ELSC_CHECK_MSG(ParseSchedulerKind(name, &kind),
                 "unknown scheduler name (expected linux|elsc|heap|multiqueue|o1)");
  return kind;
}

const char* SchedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kLinux:
      return "linux";
    case SchedulerKind::kElsc:
      return "elsc";
    case SchedulerKind::kHeap:
      return "heap";
    case SchedulerKind::kMultiQueue:
      return "multiqueue";
    case SchedulerKind::kO1:
      return "o1";
  }
  return "?";
}

std::vector<SchedulerKind> AllSchedulerKinds() {
  return {SchedulerKind::kLinux, SchedulerKind::kElsc, SchedulerKind::kHeap,
          SchedulerKind::kMultiQueue, SchedulerKind::kO1};
}

std::unique_ptr<Scheduler> MakeScheduler(SchedulerKind kind, const CostModel& cost_model,
                                         TaskList* all_tasks, const SchedulerConfig& config,
                                         const ElscOptions& elsc_options) {
  switch (kind) {
    case SchedulerKind::kLinux:
      return std::make_unique<LinuxScheduler>(cost_model, all_tasks, config);
    case SchedulerKind::kElsc:
      return std::make_unique<ElscScheduler>(cost_model, all_tasks, config, elsc_options);
    case SchedulerKind::kHeap:
      return std::make_unique<HeapScheduler>(cost_model, all_tasks, config);
    case SchedulerKind::kMultiQueue:
      return std::make_unique<MultiQueueScheduler>(cost_model, all_tasks, config);
    case SchedulerKind::kO1:
      return std::make_unique<O1Scheduler>(cost_model, all_tasks, config);
  }
  __builtin_unreachable();
}

}  // namespace elsc
