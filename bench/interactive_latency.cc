// Desktop responsiveness under load: dispatch latency of an interactive
// task while CPU hogs saturate the machine.
//
// The paper's design goal 4: "Maintain existing performance for light
// loads. Scale gracefully under heavy loads." This bench quantifies the
// first half from the interactive task's point of view: the time between
// becoming runnable (its sleep timer fires) and being dispatched onto a
// CPU, as the number of background CPU hogs grows.
//
//   usage: interactive_latency [config]

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/experiment_util.h"
#include "src/smp/machine.h"
#include "src/stats/table.h"
#include "src/workloads/micro_behaviors.h"

namespace {

struct LatencyResult {
  double mean_us = 0.0;
  uint64_t wakeups = 0;
};

LatencyResult MeasureLatency(elsc::KernelConfig kernel, elsc::SchedulerKind kind, int hogs) {
  elsc::MachineConfig config = MakeMachineConfig(kernel, kind, 1);
  elsc::Machine machine(config);

  std::vector<std::unique_ptr<elsc::SpinnerBehavior>> hog_behaviors;
  for (int i = 0; i < hogs; ++i) {
    hog_behaviors.push_back(
        std::make_unique<elsc::SpinnerBehavior>(elsc::MsToCycles(5), elsc::SecToCycles(30)));
    elsc::TaskParams params;
    params.name = "hog-" + std::to_string(i);
    params.behavior = hog_behaviors.back().get();
    machine.CreateTask(params);
  }

  // The "editor": 300 us of work every 30 ms, 200 iterations (~6 s).
  elsc::InteractiveBehavior editor(elsc::UsToCycles(300), elsc::MsToCycles(30), 200);
  elsc::TaskParams params;
  params.name = "editor";
  params.behavior = &editor;
  elsc::Task* editor_task = machine.CreateTask(params);

  machine.Start();
  machine.RunUntil([editor_task] { return editor_task->state == elsc::TaskState::kZombie; },
                   elsc::SecToCycles(120));

  LatencyResult result;
  result.wakeups = editor_task->stats.times_scheduled;
  if (result.wakeups > 0) {
    result.mean_us = elsc::CyclesToUs(editor_task->stats.wait_cycles) /
                     static_cast<double>(result.wakeups);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string config_label = argc > 1 ? argv[1] : "UP";
  const elsc::KernelConfig kernel = elsc::ParseKernel(elsc::ArgName(1, "config"), config_label);

  elsc::PrintBenchHeader(
      "Interactive dispatch latency under CPU load (" + config_label + ")",
      "mean runnable->dispatched latency of a 300us/30ms editor task, in microseconds");

  std::vector<std::string> headers = {"hogs"};
  for (const auto kind : elsc::AllSchedulerKinds()) {
    headers.push_back(SchedulerKindName(kind));
  }
  elsc::TextTable table(headers);
  const std::vector<int> hog_counts = {0, 1, 4, 16, 64};
  struct Cell {
    int hogs;
    elsc::SchedulerKind kind;
  };
  std::vector<Cell> cells;
  for (const int hogs : hog_counts) {
    for (const auto kind : elsc::AllSchedulerKinds()) {
      cells.push_back({hogs, kind});
    }
  }
  const std::vector<LatencyResult> results =
      elsc::RunBenchMatrix("interactive_latency", cells.size(), [&cells, kernel](size_t i) {
        return MeasureLatency(kernel, cells[i].kind, cells[i].hogs);
      });
  size_t cell = 0;
  for (const int hogs : hog_counts) {
    std::vector<std::string> row = {std::to_string(hogs)};
    for (size_t k = 0; k < elsc::AllSchedulerKinds().size(); ++k) {
      row.push_back(elsc::FmtF(results[cell++].mean_us, 1));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\nReading: goodness-faithful schedulers (stock, ELSC, multiqueue) keep the\n"
      "editor's latency near one quantum-boundary regardless of hog count, because\n"
      "its banked counter wins the preemption check. The heap's static-goodness\n"
      "ties break by insertion order instead, so its latency grows with the hog\n"
      "population — the selection-quality cost of dropping the dynamic bonuses.\n");
  return elsc::BenchExit(0);
}
