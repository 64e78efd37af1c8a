// lat_ctx-style microbenchmark: per-hop context-switch + scheduling latency
// in a token ring, swept over the number of concurrent tokens (≈ run-queue
// depth), for every scheduler backend.
//
// This isolates the paper's core effect with no chat-workload structure in
// the way: the stock scheduler's pick cost is linear in the runnable
// population, so its hop latency inflates as tokens are added; the bounded
// and per-CPU designs hold steady. (LMbench's lat_ctx was the standard
// scheduler microbenchmark of the paper's era.)
//
//   usage: lat_ctx [ring_tasks] [hops]

#include <cstdio>

#include "bench/experiment_util.h"
#include "src/stats/table.h"
#include "src/workloads/token_ring.h"

int main(int argc, char** argv) {
  // Every token needs a task to hold it and at least one hop.
  const std::vector<int> token_counts = {1, 2, 4, 8, 16, 32};
  const int ring_tasks = elsc::IntArg(argc, argv, 1, "ring_tasks", 64, token_counts.back());
  const uint64_t hops =
      elsc::IntArg(argc, argv, 2, "hops", 50000, token_counts.back(), INT64_MAX);

  elsc::PrintBenchHeader(
      "lat_ctx: token-ring hop latency vs. runnable depth (UP)",
      std::to_string(ring_tasks) + " ring tasks, " + std::to_string(hops) +
          " hops; mean microseconds per hop (wake -> schedule -> dispatch -> work)");

  std::vector<std::string> headers = {"tokens"};
  for (const auto kind : elsc::AllSchedulerKinds()) {
    headers.push_back(SchedulerKindName(kind));
  }
  elsc::TextTable table(headers);
  struct Cell {
    int tokens;
    elsc::SchedulerKind kind;
  };
  struct CellResult {
    bool done = false;
    double hop_latency_us = 0.0;
  };
  std::vector<Cell> cells;
  for (const int tokens : token_counts) {
    for (const auto kind : elsc::AllSchedulerKinds()) {
      cells.push_back({tokens, kind});
    }
  }
  const std::vector<CellResult> results =
      elsc::RunBenchMatrix("lat_ctx", cells.size(), [&cells, ring_tasks, hops](size_t i) {
        elsc::MachineConfig mc = MakeMachineConfig(elsc::KernelConfig::kUp, cells[i].kind, 1);
        elsc::Machine machine(mc);
        elsc::TokenRingConfig rc;
        rc.tasks = ring_tasks;
        rc.tokens = cells[i].tokens;
        rc.total_hops = hops;
        elsc::TokenRingWorkload ring(machine, rc);
        ring.Setup();
        machine.Start();
        CellResult result;
        result.done =
            machine.RunUntil([&ring] { return ring.Done(); }, elsc::SecToCycles(3600));
        result.hop_latency_us = ring.Result().hop_latency_us;
        return result;
      });
  size_t cell = 0;
  for (const int tokens : token_counts) {
    std::vector<std::string> row = {std::to_string(tokens)};
    for (size_t k = 0; k < elsc::AllSchedulerKinds().size(); ++k) {
      const CellResult& result = results[cell++];
      row.push_back(result.done ? elsc::FmtF(result.hop_latency_us, 1) : "FAIL");
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  elsc::MaybeExportCsv("lat_ctx", table);
  std::printf(
      "\nReading: with K tokens, K-1 queued tasks pad everyone's wall latency\n"
      "equally; the scheduler-cost difference is the extra growth of the stock\n"
      "column relative to the bounded (elsc/heap) and per-CPU (multiqueue) ones.\n");
  return elsc::BenchExit(0);
}
