// The reproduction gate: runs reduced-scale versions of every experiment and
// PASS/FAILs the paper's qualitative claims. This is EXPERIMENTS.md made
// executable — if this binary exits 0, the shapes hold.
//
//   usage: validate_paper [rooms_small] [rooms_large]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/experiment_util.h"

namespace {

int g_failures = 0;

void Check(bool ok, const std::string& claim, const std::string& detail) {
  std::printf("[%s] %s (%s)\n", ok ? "PASS" : "FAIL", claim.c_str(), detail.c_str());
  if (!ok) {
    ++g_failures;
  }
}

std::string Ratio(double a, double b) {
  return elsc::FmtF(a, 0) + " vs " + elsc::FmtF(b, 0);
}

}  // namespace

int main(int argc, char** argv) {
  const int small_rooms = elsc::IntArg(argc, argv, 1, "rooms_small", 5, 1);
  const int large_rooms = elsc::IntArg(argc, argv, 2, "rooms_large", 15, 1);

  elsc::PrintBenchHeader("Reproduction gate",
                         "asserting the paper's claims at " + std::to_string(small_rooms) +
                             " vs " + std::to_string(large_rooms) + " rooms");

  using elsc::KernelConfig;
  using elsc::SchedulerKind;

  // --- VolanoMark runs the claims are checked against ---
  const std::vector<elsc::VolanoCellSpec> cells = {
      {KernelConfig::kUp, SchedulerKind::kLinux, small_rooms, 1},
      {KernelConfig::kUp, SchedulerKind::kLinux, large_rooms, 1},
      {KernelConfig::kUp, SchedulerKind::kElsc, small_rooms, 1},
      {KernelConfig::kUp, SchedulerKind::kElsc, large_rooms, 1},
      {KernelConfig::kSmp4, SchedulerKind::kLinux, small_rooms, 1},
      {KernelConfig::kSmp4, SchedulerKind::kLinux, large_rooms, 1},
      {KernelConfig::kSmp4, SchedulerKind::kElsc, small_rooms, 1},
      {KernelConfig::kSmp4, SchedulerKind::kElsc, large_rooms, 1},
  };
  const std::vector<elsc::VolanoRun> runs = RunVolanoCells(cells);
  const elsc::VolanoRun& reg_up_small = runs[0];
  const elsc::VolanoRun& reg_up_large = runs[1];
  const elsc::VolanoRun& elsc_up_small = runs[2];
  const elsc::VolanoRun& elsc_up_large = runs[3];
  const elsc::VolanoRun& reg_4p_small = runs[4];
  const elsc::VolanoRun& reg_4p_large = runs[5];
  const elsc::VolanoRun& elsc_4p_small = runs[6];
  const elsc::VolanoRun& elsc_4p_large = runs[7];

  Check(reg_up_small.result.completed && reg_up_large.result.completed &&
            elsc_up_small.result.completed && elsc_up_large.result.completed &&
            reg_4p_small.result.completed && reg_4p_large.result.completed &&
            elsc_4p_small.result.completed && elsc_4p_large.result.completed,
        "all VolanoMark runs complete", "completion flags");

  // Figure 3/4: ELSC flat with rooms; stock declines; ELSC >= stock.
  const double elsc_up_factor = elsc_up_large.result.throughput / elsc_up_small.result.throughput;
  const double reg_up_factor = reg_up_large.result.throughput / reg_up_small.result.throughput;
  const double elsc_4p_factor = elsc_4p_large.result.throughput / elsc_4p_small.result.throughput;
  const double reg_4p_factor = reg_4p_large.result.throughput / reg_4p_small.result.throughput;
  Check(elsc_up_factor > 0.95 && elsc_up_factor < 1.05, "Fig 4: elsc scales flat on UP",
        "factor " + elsc::FmtF(elsc_up_factor, 3));
  Check(elsc_4p_factor > 0.95 && elsc_4p_factor < 1.05, "Fig 4: elsc scales flat on 4P",
        "factor " + elsc::FmtF(elsc_4p_factor, 3));
  Check(reg_up_factor < elsc_up_factor - 0.03, "Fig 3/4: reg declines with rooms on UP",
        "factor " + elsc::FmtF(reg_up_factor, 3));
  Check(reg_4p_factor < reg_up_factor, "Fig 4: reg scales worst on 4P",
        elsc::FmtF(reg_4p_factor, 3) + " vs UP " + elsc::FmtF(reg_up_factor, 3));
  Check(elsc_up_large.result.throughput > reg_up_large.result.throughput,
        "Fig 3: elsc beats reg at high rooms (UP)",
        Ratio(elsc_up_large.result.throughput, reg_up_large.result.throughput));
  Check(elsc_4p_large.result.throughput > 1.5 * reg_4p_large.result.throughput,
        "Fig 3: elsc beats reg decisively at high rooms (4P)",
        Ratio(elsc_4p_large.result.throughput, reg_4p_large.result.throughput));

  // Figure 2: recalculation storm only hits the stock scheduler.
  Check(reg_up_large.stats.sched.recalc_entries >=
            100 * std::max<uint64_t>(1, elsc_up_large.stats.sched.recalc_entries),
        "Fig 2: reg recalculates >=100x more than elsc",
        std::to_string(reg_up_large.stats.sched.recalc_entries) + " vs " +
            std::to_string(elsc_up_large.stats.sched.recalc_entries));
  Check(elsc_up_large.stats.sched.yield_reruns > 1000,
        "Fig 2: elsc converts yields into re-runs",
        std::to_string(elsc_up_large.stats.sched.yield_reruns) + " re-runs");

  // Figure 5: bounded search vs whole-queue walk.
  Check(reg_4p_large.stats.sched.TasksExaminedPerCall() >
            3.0 * elsc_4p_large.stats.sched.TasksExaminedPerCall(),
        "Fig 5: reg examines >=3x more tasks per call",
        elsc::FmtF(reg_4p_large.stats.sched.TasksExaminedPerCall(), 1) + " vs " +
            elsc::FmtF(elsc_4p_large.stats.sched.TasksExaminedPerCall(), 1));
  Check(reg_4p_large.stats.sched.CyclesPerSchedule() >
            3.0 * elsc_4p_large.stats.sched.CyclesPerSchedule(),
        "Fig 5: reg burns >=3x more cycles per schedule()",
        Ratio(reg_4p_large.stats.sched.CyclesPerSchedule(),
              elsc_4p_large.stats.sched.CyclesPerSchedule()));
  Check(elsc_4p_large.stats.sched.TasksExaminedPerCall() < 7.0 + 1.0,
        "Fig 5: elsc search stays within its limit",
        elsc::FmtF(elsc_4p_large.stats.sched.TasksExaminedPerCall(), 2) + " <= limit 7");

  // Figure 6: ELSC's adverse effects.
  Check(elsc_4p_large.stats.sched.schedule_calls >= reg_4p_large.stats.sched.schedule_calls,
        "Fig 6: elsc enters schedule() at least as often (4P)",
        std::to_string(elsc_4p_large.stats.sched.schedule_calls / 1000) + "k vs " +
            std::to_string(reg_4p_large.stats.sched.schedule_calls / 1000) + "k");
  const double reg_newcpu = static_cast<double>(reg_4p_large.stats.sched.picks_new_processor) /
                            static_cast<double>(reg_4p_large.stats.sched.schedule_calls);
  const double elsc_newcpu = static_cast<double>(elsc_4p_large.stats.sched.picks_new_processor) /
                             static_cast<double>(elsc_4p_large.stats.sched.schedule_calls);
  Check(elsc_newcpu > 1.5 * reg_newcpu, "Fig 6: elsc sacrifices processor affinity (4P)",
        elsc::FmtF(100 * elsc_newcpu, 1) + "% vs " + elsc::FmtF(100 * reg_newcpu, 1) + "%");

  // Table 2: light load — schedulers within noise of each other.
  {
    elsc::KcompileConfig kc;
    kc.total_compile_jobs = 300;
    kc.mean_compile_cycles = elsc::MsToCycles(50);
    kc.serial_parse_cycles = elsc::SecToCycles(1);
    kc.serial_link_cycles = elsc::SecToCycles(2);
    const std::vector<std::pair<KernelConfig, SchedulerKind>> compile_cells = {
        {KernelConfig::kUp, SchedulerKind::kLinux},
        {KernelConfig::kUp, SchedulerKind::kElsc},
        {KernelConfig::kSmp2, SchedulerKind::kLinux},
    };
    const std::vector<elsc::KcompileRun> compiles =
        elsc::RunBenchMatrix("validate_paper kcompile", compile_cells.size(),
                             [&compile_cells, &kc](size_t i) {
          return RunKcompile(
              MakeMachineConfig(compile_cells[i].first, compile_cells[i].second), kc);
        });
    const elsc::KcompileRun& reg = compiles[0];
    const elsc::KcompileRun& el = compiles[1];
    const elsc::KcompileRun& reg2 = compiles[2];
    Check(reg.result.completed && el.result.completed && reg2.result.completed,
          "Table 2: compiles complete", "completion flags");
    const double diff = std::abs(el.result.elapsed_sec - reg.result.elapsed_sec) /
                        reg.result.elapsed_sec;
    Check(diff < 0.02, "Table 2: elsc == reg within 2% under light load",
          elsc::FmtF(100 * diff, 2) + "% apart");
    Check(reg2.result.elapsed_sec < 0.75 * reg.result.elapsed_sec,
          "Table 2: two CPUs build meaningfully faster",
          elsc::FmtF(reg2.result.elapsed_sec, 1) + "s vs " +
              elsc::FmtF(reg.result.elapsed_sec, 1) + "s");
  }

  std::printf("\n%s: %d failure(s)\n", g_failures == 0 ? "ALL CLAIMS HOLD" : "CLAIMS VIOLATED",
              g_failures);
  return elsc::BenchExit(g_failures == 0 ? 0 : 1);
}
