// Chaos smoke test: every fault injector against every scheduler port with
// the strict auditor watching, emitted as machine-readable JSON
// (BENCH_chaos_smoke.json in the working directory) so CI and future
// sessions can diff the verdict.
//
// Each cell runs the chaos-mix workload under the full fault plan (timer
// jitter/loss, fork storms, spurious wakes, yield hammering, CPU stalls,
// lock-holder spikes) on a 2-CPU and a 4-CPU SMP kernel. The smoke gate is
// binary: every per-cell violation counter must be zero and no watchdog may
// fire; any red cell exits nonzero with the auditor's diagnosis.
//
//   usage: chaos_smoke [seed]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/experiment_util.h"

namespace {

struct ChaosCell {
  elsc::KernelConfig kernel;
  elsc::SchedulerKind scheduler;
};

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed = argc > 1 ? static_cast<uint64_t>(std::atoll(argv[1])) : 42;

  elsc::PrintBenchHeader("Chaos smoke",
                         "full fault plan x all schedulers under strict audit; "
                         "JSON to BENCH_chaos_smoke.json");

  const std::vector<elsc::SchedulerKind> schedulers = {
      elsc::SchedulerKind::kLinux, elsc::SchedulerKind::kElsc,
      elsc::SchedulerKind::kHeap, elsc::SchedulerKind::kMultiQueue};
  std::vector<ChaosCell> cells;
  for (const elsc::SchedulerKind kind : schedulers) {
    cells.push_back({elsc::KernelConfig::kSmp2, kind});
    cells.push_back({elsc::KernelConfig::kSmp4, kind});
  }

  const double start = elsc::NowSec();
  const std::vector<elsc::ChaosMixRun> runs = elsc::RunBenchMatrix(
      "chaos_smoke", cells.size(),
      [&](size_t i) {
        elsc::ChaosMixConfig mix;
        mix.seed = seed;
        mix.spinners = 12;
        mix.interactive = 8;
        elsc::ChaosOptions chaos;
        chaos.faults = elsc::FullChaosPlan(seed);
        // Tighten the slow injectors so every channel fires inside the mix.
        chaos.faults.fork_storm_period = elsc::MsToCycles(40);
        chaos.faults.cpu_stall_period = elsc::MsToCycles(60);
        chaos.faults.cpu_stall_duration = elsc::MsToCycles(10);
        chaos.audit = elsc::StrictAudit();
        return elsc::RunChaosMix(
            elsc::MakeMachineConfig(cells[i].kernel, cells[i].scheduler, seed),
            mix, elsc::SecToCycles(120), chaos);
      },
      elsc::BenchJobs());
  const double elapsed = elsc::NowSec() - start;

  std::printf("%-4s %-12s %8s %8s %6s %6s %6s %6s %6s %6s  %s\n", "cfg", "sched",
              "audits", "picks", "consv", "cntr", "struct", "table", "order",
              "wdog", "verdict");
  bool all_green = true;
  for (size_t i = 0; i < cells.size(); ++i) {
    const elsc::AuditStats& a = runs[i].stats.audit;
    const bool green = !runs[i].stats.failed && a.violations() == 0 &&
                       a.watchdog_firings() == 0 && runs[i].result.completed;
    all_green = all_green && green;
    std::printf("%-4s %-12s %8llu %8llu %6llu %6llu %6llu %6llu %6llu %6llu  %s\n",
                elsc::KernelConfigLabel(cells[i].kernel),
                elsc::SchedulerKindName(cells[i].scheduler),
                static_cast<unsigned long long>(a.audits),
                static_cast<unsigned long long>(a.picks_audited),
                static_cast<unsigned long long>(a.conservation_violations),
                static_cast<unsigned long long>(a.counter_violations),
                static_cast<unsigned long long>(a.structure_violations),
                static_cast<unsigned long long>(a.table_violations),
                static_cast<unsigned long long>(a.ordering_violations),
                static_cast<unsigned long long>(a.watchdog_firings()),
                green ? "ok" : "FAIL");
    if (!green && !runs[i].stats.failure.empty()) {
      std::printf("     diagnosis: %s\n", runs[i].stats.failure.c_str());
    }
  }

  // Aggregate injector activity (proof the chaos actually happened).
  elsc::FaultStats total;
  for (const elsc::ChaosMixRun& run : runs) {
    total.tick_drops += run.stats.faults.tick_drops;
    total.tick_jitters += run.stats.faults.tick_jitters;
    total.storm_bursts += run.stats.faults.storm_bursts;
    total.storm_tasks += run.stats.faults.storm_tasks;
    total.spurious_wakes += run.stats.faults.spurious_wakes;
    total.yield_tasks += run.stats.faults.yield_tasks;
    total.cpu_stalls += run.stats.faults.cpu_stalls;
    total.lock_stalls += run.stats.faults.lock_stalls;
  }
  std::printf("injected: %llu tick drops, %llu jitters, %llu storm bursts "
              "(%llu tasks), %llu spurious wakes, %llu yield hammers, "
              "%llu cpu stalls, %llu lock spikes\n",
              static_cast<unsigned long long>(total.tick_drops),
              static_cast<unsigned long long>(total.tick_jitters),
              static_cast<unsigned long long>(total.storm_bursts),
              static_cast<unsigned long long>(total.storm_tasks),
              static_cast<unsigned long long>(total.spurious_wakes),
              static_cast<unsigned long long>(total.yield_tasks),
              static_cast<unsigned long long>(total.cpu_stalls),
              static_cast<unsigned long long>(total.lock_stalls));

  const char* json_path = "BENCH_chaos_smoke.json";
  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return elsc::BenchExit(1);
  }
  std::fprintf(out, "{\n  \"seed\": %llu,\n  \"elapsed_sec\": %.3f,\n  \"cells\": [\n",
               static_cast<unsigned long long>(seed), elapsed);
  for (size_t i = 0; i < cells.size(); ++i) {
    const elsc::AuditStats& a = runs[i].stats.audit;
    const elsc::FaultStats& f = runs[i].stats.faults;
    std::fprintf(
        out,
        "    {\"kernel\": \"%s\", \"scheduler\": \"%s\", \"completed\": %s,\n"
        "     \"audits\": %llu, \"picks_audited\": %llu,\n"
        "     \"violations\": {\"conservation\": %llu, \"counter\": %llu, "
        "\"structure\": %llu, \"table\": %llu, \"ordering\": %llu},\n"
        "     \"watchdog\": {\"starvation\": %llu, \"livelock\": %llu},\n"
        "     \"injected\": {\"tick_drops\": %llu, \"tick_jitters\": %llu, "
        "\"storm_bursts\": %llu, \"storm_tasks\": %llu, \"spurious_wakes\": %llu, "
        "\"yield_tasks\": %llu, \"cpu_stalls\": %llu, \"lock_stalls\": %llu},\n"
        "     \"failed\": %s, \"failure\": \"%s\"}%s\n",
        elsc::KernelConfigLabel(cells[i].kernel),
        elsc::SchedulerKindName(cells[i].scheduler),
        runs[i].result.completed ? "true" : "false",
        static_cast<unsigned long long>(a.audits),
        static_cast<unsigned long long>(a.picks_audited),
        static_cast<unsigned long long>(a.conservation_violations),
        static_cast<unsigned long long>(a.counter_violations),
        static_cast<unsigned long long>(a.structure_violations),
        static_cast<unsigned long long>(a.table_violations),
        static_cast<unsigned long long>(a.ordering_violations),
        static_cast<unsigned long long>(a.starvation_reports),
        static_cast<unsigned long long>(a.livelock_reports),
        static_cast<unsigned long long>(f.tick_drops),
        static_cast<unsigned long long>(f.tick_jitters),
        static_cast<unsigned long long>(f.storm_bursts),
        static_cast<unsigned long long>(f.storm_tasks),
        static_cast<unsigned long long>(f.spurious_wakes),
        static_cast<unsigned long long>(f.yield_tasks),
        static_cast<unsigned long long>(f.cpu_stalls),
        static_cast<unsigned long long>(f.lock_stalls),
        runs[i].stats.failed ? "true" : "false", runs[i].stats.failure.c_str(),
        i + 1 < cells.size() ? "," : "");
  }
  const elsc::SupervisionStats& sup = elsc::GlobalSupervisionStats();
  std::fprintf(out,
               "  ],\n"
               "  \"supervision\": {\"cells\": %llu, \"completed\": %llu, "
               "\"quarantined\": %llu, \"skipped\": %llu, \"resumed\": %llu, "
               "\"retries\": %llu, \"timeouts\": %llu},\n"
               "  \"all_green\": %s\n}\n",
               static_cast<unsigned long long>(sup.cells),
               static_cast<unsigned long long>(sup.completed),
               static_cast<unsigned long long>(sup.quarantined),
               static_cast<unsigned long long>(sup.skipped),
               static_cast<unsigned long long>(sup.resumed),
               static_cast<unsigned long long>(sup.retries),
               static_cast<unsigned long long>(sup.timeouts),
               all_green ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", json_path);

  if (!all_green) {
    std::fprintf(stderr, "chaos smoke: RED — violations or watchdog firings above\n");
    return elsc::BenchExit(1);
  }
  std::printf("chaos smoke: all %zu cells green in %.2fs\n", cells.size(), elapsed);
  return elsc::BenchExit(0);
}
