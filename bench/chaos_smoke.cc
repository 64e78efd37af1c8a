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
#include <string>
#include <vector>

#include "bench/experiment_util.h"
#include "src/base/json_writer.h"

namespace {

struct ChaosCell {
  elsc::KernelConfig kernel;
  elsc::SchedulerKind scheduler;
};

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed = elsc::IntArg(argc, argv, 1, "seed", 42, 0, INT64_MAX);

  elsc::PrintBenchHeader("Chaos smoke",
                         "full fault plan x all schedulers under strict audit; "
                         "JSON to BENCH_chaos_smoke.json");

  std::vector<ChaosCell> cells;
  for (const elsc::SchedulerKind kind : elsc::AllSchedulerKinds()) {
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
    elsc::AddCounters(&total, run.stats.faults, elsc::kFaultCounters);
  }
  std::printf("injected:");
  for (const elsc::Counter<elsc::FaultStats>& c : elsc::kFaultCounters) {
    std::printf(" %s=%llu", c.name, static_cast<unsigned long long>(total.*c.field));
  }
  std::printf("\n");

  elsc::JsonWriter json;
  json.Field("seed", seed).Fixed("elapsed_sec", elapsed, 3).Array("cells");
  for (size_t i = 0; i < cells.size(); ++i) {
    const elsc::RunStats& s = runs[i].stats;
    json.Object()
        .Field("kernel", elsc::KernelConfigLabel(cells[i].kernel))
        .Field("scheduler", elsc::SchedulerKindName(cells[i].scheduler))
        .Field("completed", runs[i].result.completed)
        .Counters("audit", s.audit, elsc::kAuditCounters)
        .Counters("faults", s.faults, elsc::kFaultCounters)
        .Field("failed", s.failed)
        .Field("failure", s.failure)
        .End();
  }
  json.End()
      .Counters("supervision", elsc::GlobalSupervisionStats(), elsc::kSupervisionCounters)
      .Field("all_green", all_green);
  const char* json_path = "BENCH_chaos_smoke.json";
  if (!elsc::WriteBenchJson(json_path, json.Finish())) {
    return elsc::BenchExit(1);
  }
  std::printf("wrote %s\n", json_path);

  if (!all_green) {
    std::fprintf(stderr, "chaos smoke: RED — violations or watchdog firings above\n");
    return elsc::BenchExit(1);
  }
  std::printf("chaos smoke: all %zu cells green in %.2fs\n", cells.size(), elapsed);
  return elsc::BenchExit(0);
}
