// Table 2 reproduction: average time to complete a full Linux kernel
// compile ("make -j4 bzImage") under the current (stock) and ELSC
// schedulers, on UP and 2P kernels.
//
// The paper's claim: under light load the two schedulers are equivalent
// (ELSC introduces no overhead); the UP case slightly favors ELSC thanks to
// the uniprocessor search shortcut.
//
//   usage: table2_kcompile [runs_per_cell]

#include <cstdio>

#include "bench/experiment_util.h"
#include "src/base/string_util.h"
#include "src/stats/summary.h"
#include "src/stats/table.h"

namespace {

struct PaperRow {
  const char* label;
  elsc::KernelConfig kernel;
  elsc::SchedulerKind scheduler;
  const char* paper_time;
};

}  // namespace

int main(int argc, char** argv) {
  const int runs = elsc::IntArg(argc, argv, 1, "runs_per_cell", 3, 1);

  elsc::PrintBenchHeader(
      "Table 2: Scheduler Time to Complete Compilation",
      "make -j4 kernel build; averaged over " + std::to_string(runs) + " seeded runs");

  const PaperRow rows[] = {
      {"Current - UP", elsc::KernelConfig::kUp, elsc::SchedulerKind::kLinux, "6:41.41"},
      {"ELSC - UP", elsc::KernelConfig::kUp, elsc::SchedulerKind::kElsc, "6:38.68"},
      {"Current - 2P", elsc::KernelConfig::kSmp2, elsc::SchedulerKind::kLinux, "3:40.38"},
      {"ELSC - 2P", elsc::KernelConfig::kSmp2, elsc::SchedulerKind::kElsc, "3:40.36"},
  };

  elsc::TextTable table({"Scheduler", "Measured", "Paper", "stddev_s"});
  const size_t num_rows = sizeof(rows) / sizeof(rows[0]);
  // One flat matrix of rows x runs cells; seeds stay run+1 as before.
  const std::vector<elsc::KcompileRun> results =
      elsc::RunBenchMatrix("table2_kcompile", num_rows * static_cast<size_t>(runs),
                           [&rows, runs](size_t i) {
        const PaperRow& row = rows[i / static_cast<size_t>(runs)];
        const uint64_t run = i % static_cast<size_t>(runs);
        const elsc::MachineConfig machine =
            MakeMachineConfig(row.kernel, row.scheduler, run + 1);
        const elsc::KcompileConfig workload;  // Calibrated defaults.
        return RunKcompile(machine, workload);
      });
  for (size_t r = 0; r < num_rows; ++r) {
    const PaperRow& row = rows[r];
    elsc::Summary elapsed;
    for (int run = 0; run < runs; ++run) {
      const elsc::KcompileRun& result =
          results[r * static_cast<size_t>(runs) + static_cast<size_t>(run)];
      if (!result.result.completed) {
        std::fprintf(stderr, "%s run %d did not complete!\n", row.label, run);
        return elsc::BenchExit(1);
      }
      elapsed.Add(result.result.elapsed_sec);
    }
    table.AddRow({row.label, elsc::FormatMinSec(elapsed.mean()), row.paper_time,
                  elsc::FmtF(elapsed.stddev(), 3)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: measured times match the paper's pattern — the two\n"
      "schedulers are within noise of each other, with a slight UP edge for ELSC.\n");
  return elsc::BenchExit(0);
}
