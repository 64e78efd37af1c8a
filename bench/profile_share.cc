// §4 reproduction: the IBM kernel-profile claim that motivated the paper —
// "between 37 (5-room) and 55 (25-room) percent of total time spent in the
// kernel during the test is spent in the scheduler."
//
// The simulation separates scheduler time (pick cost + run-queue lock wait)
// from task execution per CPU, so the share is computed directly. The paper
// quotes shares of *kernel* time; our denominator is all non-idle time, so
// absolute percentages land lower — the reproduction target is the growth
// with room count for the stock scheduler and the collapse of the share
// under ELSC.
//
//   usage: profile_share [config]

#include <cstdio>
#include <string>

#include "bench/experiment_util.h"
#include "src/stats/table.h"

namespace {

struct Share {
  double sched_pct = 0.0;
  bool ok = false;
};

Share MeasureShare(elsc::KernelConfig kernel, elsc::SchedulerKind kind, int rooms) {
  elsc::VolanoConfig volano;
  volano.rooms = rooms;
  const elsc::MachineConfig config = MakeMachineConfig(kernel, kind, 1);
  elsc::Machine machine(config);
  elsc::VolanoWorkload workload(machine, volano);
  workload.Setup();
  machine.Start();
  const bool done =
      machine.RunUntil([&workload] { return workload.Done(); }, elsc::SecToCycles(3600));

  elsc::Cycles sched = 0;
  elsc::Cycles busy = 0;
  for (int i = 0; i < machine.num_cpus(); ++i) {
    sched += machine.cpu(i).stats.sched_cycles;
    busy += machine.cpu(i).stats.busy_cycles;
  }
  Share share;
  share.ok = done;
  if (sched + busy > 0) {
    share.sched_pct = 100.0 * static_cast<double>(sched) / static_cast<double>(sched + busy);
  }
  return share;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string config_label = argc > 1 ? argv[1] : "4P";
  const elsc::KernelConfig kernel = elsc::ParseKernel(elsc::ArgName(1, "config"), config_label);

  elsc::PrintBenchHeader(
      "Section 4: time spent in the scheduler (" + config_label + ")",
      "scheduler share of non-idle CPU time during VolanoMark; the paper's kernel\n"
      "profile reported 37% (5 rooms) to 55% (25 rooms) of kernel time for reg");

  elsc::TextTable table({"rooms", "reg sched %", "elsc sched %"});
  const std::vector<int> room_counts = {5, 10, 15, 20, 25};
  const std::vector<elsc::SchedulerKind> kinds = {elsc::SchedulerKind::kLinux,
                                                  elsc::SchedulerKind::kElsc};
  const std::vector<Share> shares =
      elsc::RunBenchMatrix("profile_share", room_counts.size() * kinds.size(), [&](size_t i) {
        return MeasureShare(kernel, kinds[i % kinds.size()],
                            room_counts[i / kinds.size()]);
      });
  size_t cell = 0;
  for (const int rooms : room_counts) {
    const Share reg = shares[cell++];
    const Share el = shares[cell++];
    if (!reg.ok || !el.ok) {
      std::fprintf(stderr, "%d-room run did not complete!\n", rooms);
      return elsc::BenchExit(1);
    }
    table.AddRow({std::to_string(rooms), elsc::FmtF(reg.sched_pct, 1) + "%",
                  elsc::FmtF(el.sched_pct, 1) + "%"});
  }
  table.Print();
  elsc::MaybeExportCsv("profile_share", table);
  std::printf(
      "\nExpected shape: the stock scheduler's share grows steadily with rooms\n"
      "(the paper's motivating observation); ELSC's stays small and flat.\n");
  return elsc::BenchExit(0);
}
