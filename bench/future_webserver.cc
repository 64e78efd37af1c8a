// Future work (§8): "how the ELSC scheduler performs in other multithreaded
// environments... a web server running Apache. Would ELSC be more effective
// in increasing throughput or decreasing the latency?"
//
// A prefork-style worker pool serves Poisson arrivals; we compare the stock
// and ELSC schedulers on throughput and response-latency percentiles, on 1P
// and 4P kernels.
//
//   usage: future_webserver [workers] [rate]

#include <cstdio>

#include "bench/experiment_util.h"
#include "src/stats/table.h"

int main(int argc, char** argv) {
  const int workers = elsc::IntArg(argc, argv, 1, "workers", 150, 1);
  const double rate =
      argc > 2 ? elsc::ParseNumber(elsc::ArgName(2, "rate"), argv[2], /*positive=*/true) : 900.0;

  elsc::PrintBenchHeader(
      "Future work: Apache-style web server",
      std::to_string(workers) + " prefork workers, Poisson arrivals at " +
          std::to_string(static_cast<int>(rate)) + "/s for 20 simulated seconds");

  elsc::TextTable table({"config", "sched", "req/s", "p50 us", "p95 us", "p99 us", "p99.9 us",
                         "dropped", "cycles/sched"});
  const std::vector<elsc::KernelConfig> kernels = {elsc::KernelConfig::kSmp1,
                                                   elsc::KernelConfig::kSmp4};
  struct Cell {
    elsc::KernelConfig kernel;
    elsc::SchedulerKind sched;
  };
  std::vector<Cell> cell_specs;
  for (const auto kernel : kernels) {
    for (const auto sched : elsc::PaperSchedulers()) {
      cell_specs.push_back({kernel, sched});
    }
  }
  const std::vector<elsc::WebserverRun> runs =
      elsc::RunBenchMatrix("future_webserver", cell_specs.size(),
                           [&cell_specs, workers, rate](size_t i) {
        elsc::WebserverConfig workload;
        workload.workers = workers;
        workload.arrival_rate_per_sec = rate;
        const elsc::MachineConfig machine =
            MakeMachineConfig(cell_specs[i].kernel, cell_specs[i].sched);
        return RunWebserver(machine, workload);
      });
  for (size_t i = 0; i < cell_specs.size(); ++i) {
    const auto kernel = cell_specs[i].kernel;
    const auto sched = cell_specs[i].sched;
    const elsc::WebserverRun& run = runs[i];
    table.AddRow({KernelConfigLabel(kernel), elsc::PaperLabel(sched),
                  elsc::FmtF(run.result.throughput, 0),
                  elsc::FmtI(run.result.latency_p50_us),
                  elsc::FmtI(run.result.latency_p95_us),
                  elsc::FmtI(run.result.latency_p99_us),
                  elsc::FmtI(run.result.latency_p999_us),
                  elsc::FmtI(run.result.requests_dropped),
                  elsc::FmtF(run.stats.sched.CyclesPerSchedule(), 0)});
  }
  table.Print();
  std::printf(
      "\nAnswer to the paper's question: with mostly-blocked worker pools the run\n"
      "queue stays short, so ELSC's gains are modest — visible mainly in tail\n"
      "latency and cycles/schedule, not raw throughput. The scheduler is not the\n"
      "primary bottleneck for this workload shape.\n");
  return elsc::BenchExit(0);
}
