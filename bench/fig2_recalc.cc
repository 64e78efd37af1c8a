// Figure 2 reproduction: the number of times each scheduler enters the
// counter-recalculation loop during a VolanoMark run (log-scale bar chart in
// the paper), for UP / 1P / 2P / 4P kernels.
//
// The paper's claim: the stock scheduler recalculates every counter in the
// system whenever a task yields with nothing else schedulable (orders of
// magnitude more entries); ELSC re-runs the yielder instead.
//
//   usage: fig2_recalc [rooms]

#include <cstdio>

#include "bench/experiment_util.h"
#include "src/stats/ascii_chart.h"
#include "src/stats/table.h"

int main(int argc, char** argv) {
  const int rooms = elsc::IntArg(argc, argv, 1, "rooms", 10, 1);

  elsc::PrintBenchHeader("Figure 2: Recalculate Frequency",
                         "recalculate-loop entries during a " + std::to_string(rooms) +
                             "-room VolanoMark run (paper plots this on a log scale)");

  // One cell per (kernel, scheduler); the harness fans them out.
  std::vector<elsc::VolanoCellSpec> cells;
  for (const auto kernel : elsc::PaperConfigs()) {
    for (const auto sched : elsc::PaperSchedulers()) {
      cells.push_back({kernel, sched, rooms, 1});
    }
  }
  const std::vector<elsc::VolanoRun> runs = RunVolanoCells(cells);

  elsc::TextTable table({"config", "reg", "elsc", "reg yield_reruns", "elsc yield_reruns"});
  std::vector<elsc::BarGroup> bars;
  size_t cell = 0;
  for (const auto kernel : elsc::PaperConfigs()) {
    const elsc::VolanoRun& reg = runs[cell++];
    const elsc::VolanoRun& el = runs[cell++];
    if (!reg.result.completed || !el.result.completed) {
      std::fprintf(stderr, "%s run did not complete!\n", KernelConfigLabel(kernel));
      return elsc::BenchExit(1);
    }
    table.AddRow({KernelConfigLabel(kernel), elsc::FmtI(reg.stats.sched.recalc_entries),
                  elsc::FmtI(el.stats.sched.recalc_entries),
                  elsc::FmtI(reg.stats.sched.yield_reruns),
                  elsc::FmtI(el.stats.sched.yield_reruns)});
    bars.push_back({KernelConfigLabel(kernel),
                    {static_cast<double>(reg.stats.sched.recalc_entries),
                     static_cast<double>(el.stats.sched.recalc_entries)}});
  }
  table.Print();
  elsc::BarChartOptions chart;
  chart.log_scale = true;
  std::printf("\n%s", RenderBarChart({"reg", "elsc"}, bars, chart).c_str());
  elsc::MaybeExportCsv("fig2_recalc", table);
  std::printf(
      "\nExpected shape: reg enters the recalculate loop orders of magnitude more\n"
      "often than elsc on every configuration; elsc converts the solo-yield storm\n"
      "into cheap re-runs of the yielding task (yield_reruns column).\n");
  return elsc::BenchExit(0);
}
