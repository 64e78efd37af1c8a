// Figure 5 reproduction: (a) cycles spent per entry into schedule() and
// (b) tasks examined per schedule() call, during a 10-room VolanoMark run,
// for UP / 1P / 2P / 4P kernels.
//
// The paper's claim: ELSC spends significantly fewer cycles per entry
// because its table-based search examines far fewer tasks (bounded by
// ncpus/2 + 5) than the stock scheduler's whole-queue goodness() walk.
//
//   usage: fig5_cost [rooms]

#include <cstdio>

#include "bench/experiment_util.h"
#include "src/stats/table.h"

int main(int argc, char** argv) {
  const int rooms = elsc::IntArg(argc, argv, 1, "rooms", 10, 1);

  elsc::PrintBenchHeader("Figure 5: Cycles per Schedule() and Tasks Examined",
                         std::to_string(rooms) + "-room VolanoMark run");

  elsc::TextTable cycles({"config", "reg cycles/sched", "elsc cycles/sched",
                          "reg lock-wait share", "elsc lock-wait share"});
  elsc::TextTable examined({"config", "reg tasks examined", "elsc tasks examined"});

  std::vector<elsc::VolanoCellSpec> cells;
  for (const auto kernel : elsc::PaperConfigs()) {
    for (const auto sched : elsc::PaperSchedulers()) {
      cells.push_back({kernel, sched, rooms, 1});
    }
  }
  const std::vector<elsc::VolanoRun> runs = RunVolanoCells(cells);

  size_t cell = 0;
  for (const auto kernel : elsc::PaperConfigs()) {
    const elsc::VolanoRun& reg = runs[cell++];
    const elsc::VolanoRun& el = runs[cell++];
    if (!reg.result.completed || !el.result.completed) {
      std::fprintf(stderr, "%s run did not complete!\n", KernelConfigLabel(kernel));
      return elsc::BenchExit(1);
    }
    auto lock_share = [](const elsc::SchedStats& s) {
      const double total = static_cast<double>(s.cycles_in_schedule + s.lock_wait_cycles);
      return total == 0 ? 0.0 : static_cast<double>(s.lock_wait_cycles) / total;
    };
    cycles.AddRow({KernelConfigLabel(kernel),
                   elsc::FmtF(reg.stats.sched.CyclesPerSchedule(), 0),
                   elsc::FmtF(el.stats.sched.CyclesPerSchedule(), 0),
                   elsc::FmtF(100.0 * lock_share(reg.stats.sched), 1) + "%",
                   elsc::FmtF(100.0 * lock_share(el.stats.sched), 1) + "%"});
    examined.AddRow({KernelConfigLabel(kernel),
                     elsc::FmtF(reg.stats.sched.TasksExaminedPerCall(), 2),
                     elsc::FmtF(el.stats.sched.TasksExaminedPerCall(), 2)});
  }

  std::printf("\n-- Cycles per Schedule() --\n");
  cycles.Print();
  std::printf("\n-- Tasks Examined per call --\n");
  examined.Print();
  std::printf(
      "\nExpected shape (paper): reg examines the whole runnable queue (tens of\n"
      "tasks, growing with CPUs) and burns 5,000-20,000+ cycles per entry; elsc\n"
      "examines a bounded handful and stays in the low thousands. On SMP, the\n"
      "global run-queue lock wait adds to reg's bill.\n");
  return elsc::BenchExit(0);
}
