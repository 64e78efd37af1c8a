// Figure 6 reproduction: (a) entries into schedule() (thousands) during an
// average 10-room VolanoMark run, and (b) how many times the scheduler
// placed a task on a different processor than it last ran on, for UP / 1P /
// 2P / 4P kernels.
//
// The paper's claim (ELSC's adverse effects): the table-based scheme enters
// schedule() *more* often on multiprocessors, strongly correlated with
// choosing tasks without the processor-affinity bonus — ELSC searches only
// the highest populated static-priority class and may miss a lower-class
// task that affinity would have favored.
//
//   usage: fig6_calls [rooms]

#include <cstdio>

#include "bench/experiment_util.h"
#include "src/stats/table.h"

int main(int argc, char** argv) {
  const int rooms = elsc::IntArg(argc, argv, 1, "rooms", 10, 1);

  elsc::PrintBenchHeader("Figure 6: Calls to Schedule() and Cross-CPU Placements",
                         std::to_string(rooms) + "-room VolanoMark run");

  elsc::TextTable calls({"config", "reg sched calls (k)", "elsc sched calls (k)"});
  elsc::TextTable moved({"config", "reg new-cpu picks", "elsc new-cpu picks",
                         "reg new-cpu %", "elsc new-cpu %"});

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
    calls.AddRow({KernelConfigLabel(kernel),
                  elsc::FmtF(static_cast<double>(reg.stats.sched.schedule_calls) / 1000.0, 0),
                  elsc::FmtF(static_cast<double>(el.stats.sched.schedule_calls) / 1000.0, 0)});
    auto pct = [](const elsc::SchedStats& s) {
      return s.schedule_calls == 0
                 ? 0.0
                 : 100.0 * static_cast<double>(s.picks_new_processor) /
                       static_cast<double>(s.schedule_calls);
    };
    moved.AddRow({KernelConfigLabel(kernel), elsc::FmtI(reg.stats.sched.picks_new_processor),
                  elsc::FmtI(el.stats.sched.picks_new_processor),
                  elsc::FmtF(pct(reg.stats.sched), 2) + "%",
                  elsc::FmtF(pct(el.stats.sched), 2) + "%"});
  }

  std::printf("\n-- Calls to Schedule() (thousands) --\n");
  calls.Print();
  std::printf("\n-- Tasks Scheduled on a New Processor --\n");
  moved.Print();
  std::printf(
      "\nExpected shape (paper): elsc enters schedule() at least as often as reg\n"
      "(its two documented adverse statistics), and on SMP configurations it\n"
      "schedules tasks onto new processors far more often — the price of\n"
      "searching only the top static-priority class.\n");
  return elsc::BenchExit(0);
}
