// Ablation A2: the ELSC table geometry.
//
// The paper uses 30 lists (20 SCHED_OTHER + 10 real-time) with a static-
// goodness divisor of 4. This sweep varies the number of SCHED_OTHER lists
// (scaling the divisor so the whole static-goodness range stays covered).
// With a single list, every task collides into one bucket — the paper's
// stated worst case, where "ELSC performance can be no better than the
// current scheduler".
//
//   usage: ablation_table_size [rooms]

#include <cstdio>

#include "bench/experiment_util.h"
#include "src/stats/table.h"

int main(int argc, char** argv) {
  const int rooms = elsc::IntArg(argc, argv, 1, "rooms", 10, 1);

  elsc::PrintBenchHeader("Ablation A2: ELSC table width, 4P VolanoMark",
                         std::to_string(rooms) +
                             "-room run; paper default: 20 SCHED_OTHER lists, divisor 4");

  // Maximum static goodness is 3 * kMaxPriority = 120.
  const long kMaxStatic = 3 * elsc::kMaxPriority;

  elsc::TextTable table(
      {"other lists", "divisor", "throughput", "cycles/sched", "tasks examined"});
  const std::vector<int> list_counts = {1, 2, 5, 10, 20, 40};
  auto divisor_for = [kMaxStatic](int lists) {
    return lists >= kMaxStatic ? 1 : (kMaxStatic + lists - 1) / lists;
  };
  const std::vector<elsc::VolanoRun> runs =
      elsc::RunBenchMatrix("ablation_table_size", list_counts.size(),
                           [&list_counts, &divisor_for, rooms](size_t i) {
        elsc::VolanoConfig volano;
        volano.rooms = rooms;
        elsc::MachineConfig machine =
            MakeMachineConfig(elsc::KernelConfig::kSmp4, elsc::SchedulerKind::kElsc);
        machine.elsc.table.num_other_lists = list_counts[i];
        machine.elsc.table.goodness_divisor = divisor_for(list_counts[i]);
        return RunVolano(machine, volano);
      });
  for (size_t i = 0; i < list_counts.size(); ++i) {
    const int lists = list_counts[i];
    const elsc::VolanoRun& run = runs[i];
    if (!run.result.completed) {
      std::fprintf(stderr, "lists=%d run did not complete!\n", lists);
      return elsc::BenchExit(1);
    }
    table.AddRow({std::to_string(lists), std::to_string(divisor_for(lists)),
                  elsc::FmtF(run.result.throughput, 0),
                  elsc::FmtF(run.stats.sched.CyclesPerSchedule(), 0),
                  elsc::FmtF(run.stats.sched.TasksExaminedPerCall(), 2)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: with one list the search degenerates (bounded only by the\n"
      "search limit, losing selection quality); past ~10-20 lists the benefit\n"
      "saturates — the paper's 20-list/divisor-4 choice is on the plateau.\n");
  return elsc::BenchExit(0);
}
