// Ablation A1: the ELSC in-list search limit.
//
// The paper fixes the limit at ncpus/2 + 5, "large enough to find tasks with
// adequate bonuses on SMP systems, yet still limit the search to a
// reasonable number of tasks" (§5.2). This sweep varies the additive term to
// expose the trade: a larger limit restores processor affinity (fewer
// cross-CPU placements, Figure 6's adverse effect) at the price of more
// cycles per schedule().
//
//   usage: ablation_search_limit [rooms]

#include <cstdio>

#include "bench/experiment_util.h"
#include "src/stats/table.h"

int main(int argc, char** argv) {
  const int rooms = elsc::IntArg(argc, argv, 1, "rooms", 10, 1);

  elsc::PrintBenchHeader(
      "Ablation A1: ELSC search limit (ncpus/2 + extra), 4P VolanoMark",
      std::to_string(rooms) + "-room run; paper default extra = 5");

  elsc::TextTable table({"extra", "limit", "throughput", "cycles/sched", "tasks examined",
                         "new-cpu pick %"});
  const std::vector<int> extras = {1, 2, 5, 10, 20, 40};
  const std::vector<elsc::VolanoRun> runs =
      elsc::RunBenchMatrix("ablation_search_limit", extras.size(), [&extras, rooms](size_t i) {
        elsc::VolanoConfig volano;
        volano.rooms = rooms;
        elsc::MachineConfig machine =
            MakeMachineConfig(elsc::KernelConfig::kSmp4, elsc::SchedulerKind::kElsc);
        machine.elsc.search_limit_extra = extras[i];
        return RunVolano(machine, volano);
      });
  for (size_t i = 0; i < extras.size(); ++i) {
    const int extra = extras[i];
    const elsc::VolanoRun& run = runs[i];
    if (!run.result.completed) {
      std::fprintf(stderr, "extra=%d run did not complete!\n", extra);
      return elsc::BenchExit(1);
    }
    const double new_cpu_pct =
        100.0 * static_cast<double>(run.stats.sched.picks_new_processor) /
        static_cast<double>(run.stats.sched.schedule_calls);
    table.AddRow({std::to_string(extra), std::to_string(4 / 2 + extra),
                  elsc::FmtF(run.result.throughput, 0),
                  elsc::FmtF(run.stats.sched.CyclesPerSchedule(), 0),
                  elsc::FmtF(run.stats.sched.TasksExaminedPerCall(), 2),
                  elsc::FmtF(new_cpu_pct, 2) + "%"});
  }
  table.Print();
  std::printf(
      "\nExpected shape: growing the limit raises tasks-examined and\n"
      "cycles/schedule while lowering the cross-CPU placement rate; the paper's\n"
      "default sits at the knee of the curve.\n");
  return elsc::BenchExit(0);
}
