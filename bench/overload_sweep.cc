// Overload sweep: open-loop load-factor sweep (0.5x -> 2x saturation) of the
// webserver workload, per scheduler backend, with the overload-resilience
// layer on (bounded backlog, deadline shedding, retrying clients with
// deterministic jittered backoff). Emits offered-load vs goodput curves with
// the drop/retry breakdown and latency tail to BENCH_overload.json — which
// contains only simulated data, so it is bit-identical at any ELSC_BENCH_JOBS.
//
//   usage: overload_sweep [seed]
//
// Knobs (environment; a malformed value exits 2):
//   ELSC_LOADS         comma-separated load factors, each above 0
//                      (default "0.5,0.75,1.0,1.25,1.5,2.0")
//   ELSC_DURATION_SEC  simulated measurement window (default 4)
//   ELSC_KERNEL        UP | 1P | 2P | 4P (default 4P)
//   ELSC_CHAOS         1 -> run every cell under the connection-
//                      lifecycle chaos plan (resets, half-open
//                      peers, slow peers, reconnect storms)

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/experiment_util.h"
#include "src/api/overload.h"

namespace {

std::vector<double> LoadFactors() {
  std::vector<double> loads;
  for (const std::string& field : elsc::EnvFields("ELSC_LOADS", "0.5,0.75,1.0,1.25,1.5,2.0")) {
    loads.push_back(elsc::ParseNumber("ELSC_LOADS", field, /*positive=*/true));
  }
  return loads;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed = elsc::IntArg(argc, argv, 1, "seed", 42, 0, INT64_MAX);
  const elsc::KernelConfig kernel = elsc::KernelEnv("ELSC_KERNEL", "4P");
  const int duration_sec = elsc::IntEnv("ELSC_DURATION_SEC", 4);
  const bool chaos_on = elsc::FlagEnv("ELSC_CHAOS", false);
  const std::vector<double> loads = LoadFactors();

  elsc::PrintBenchHeader(
      "Overload sweep",
      elsc::StrFormat("open-loop webserver load sweep on %s, resilience layer on%s; "
                      "JSON to BENCH_overload.json",
                      elsc::KernelConfigLabel(kernel),
                      chaos_on ? ", connection chaos injected" : ""));

  std::vector<elsc::OverloadCellSpec> cells;
  for (const elsc::SchedulerKind kind : elsc::AllSchedulerKinds()) {
    for (const double load : loads) {
      elsc::OverloadCellSpec spec;
      spec.kernel = kernel;
      spec.scheduler = kind;
      spec.load_factor = load;
      spec.seed = seed;
      cells.push_back(spec);
    }
  }

  const elsc::WebserverConfig base =
      elsc::OverloadBaseConfig(elsc::SecToCycles(duration_sec));

  const double start = elsc::NowSec();
  const std::vector<elsc::OverloadCell> runs = elsc::RunBenchMatrix(
      "overload_sweep", cells.size(),
      [&](size_t i) {
        elsc::ChaosOptions chaos;
        if (chaos_on) {
          chaos.faults = elsc::ConnChaosPlan(seed);
        }
        return elsc::RunOverloadCell(cells[i], base, chaos);
      },
      elsc::BenchJobs());
  const double elapsed = elsc::NowSec() - start;

  std::printf("%-12s %5s %9s %9s %8s %7s %6s %7s %7s %7s %7s %8s\n", "sched",
              "load", "offered", "goodput", "backlog", "shed", "reset",
              "retries", "p50us", "p99us", "p999us", "verdict");
  bool all_ok = true;
  for (const elsc::OverloadCell& cell : runs) {
    const elsc::WebserverResult& r = cell.run.result;
    const bool ok = !cell.run.stats.failed;
    all_ok = all_ok && ok;
    std::printf("%-12s %5.2f %9.1f %9.1f %8llu %7llu %6llu %7llu %7llu %7llu %7llu %8s\n",
                elsc::SchedulerKindName(cell.spec.scheduler), cell.spec.load_factor,
                cell.offered_rate, r.throughput,
                static_cast<unsigned long long>(r.dropped_backlog),
                static_cast<unsigned long long>(r.dropped_shed),
                static_cast<unsigned long long>(r.dropped_reset),
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.latency_p50_us),
                static_cast<unsigned long long>(r.latency_p99_us),
                static_cast<unsigned long long>(r.latency_p999_us),
                ok ? "ok" : "FAIL");
    if (!ok && !cell.run.stats.failure.empty()) {
      std::printf("     diagnosis: %s\n", cell.run.stats.failure.c_str());
    }
  }

  const char* json_path = "BENCH_overload.json";
  if (!elsc::WriteBenchJson(json_path, elsc::RenderOverloadJson(runs, seed, chaos_on))) {
    return elsc::BenchExit(1);
  }
  std::printf("wrote %s (%zu cells in %.2fs wall)\n", json_path, runs.size(), elapsed);

  if (!all_ok) {
    std::fprintf(stderr, "overload sweep: RED — failed cells above\n");
    return elsc::BenchExit(1);
  }
  return elsc::BenchExit(0);
}
