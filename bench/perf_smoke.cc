// Performance smoke test: the two numbers this repo's perf work is judged
// by, emitted as machine-readable JSON (BENCH_perf_smoke.json in the
// working directory) so CI and future sessions can diff them.
//
//   events_per_sec    — raw EventQueue hot path: schedule/cancel/pop churn
//                       with simulation-shaped timestamps, single thread.
//   matrix_serial_sec / matrix_parallel_sec — wall-clock of a 4-cell
//                       VolanoMark matrix at jobs=1 vs jobs=BenchJobs();
//                       the speedup column only moves on multi-core hosts
//                       (host_cpus records how many the run had).
//
//   usage: perf_smoke [churn_events] [rooms]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/experiment_util.h"
#include "src/base/json_writer.h"
#include "src/base/rng.h"
#include "src/harness/run_matrix.h"
#include "src/sim/event_queue.h"

namespace {

// Schedule/pop/cancel churn shaped like the simulator's usage: a rolling
// window of pending timers (ticks, segment ends, sleeps) where most events
// fire but a steady fraction is cancelled first (preemptions, early wakes).
// Returns operations (scheduled + fired + cancelled) per second.
double EventQueueChurn(uint64_t total_events, elsc::EventQueueStats* out_stats) {
  elsc::EventQueue queue;
  elsc::Rng rng(42);
  std::vector<elsc::EventId> pending;
  pending.reserve(512);

  uint64_t fired = 0;
  volatile uint64_t sink = 0;  // Keeps callbacks from folding away.

  const double start = elsc::NowSec();
  elsc::Cycles now = 0;
  uint64_t scheduled = 0;
  while (scheduled < total_events || !queue.Empty()) {
    // Keep ~1024 events in flight, like a machine full of armed timers.
    while (scheduled < total_events && queue.Size() < 1024) {
      const elsc::Cycles when = now + 1 + rng.NextBelow(400000);
      // Capture shaped like the simulator's dispatch events ([this, cpu_id,
      // next, pick_cost] in machine.cc): ~32 bytes of state.
      const uint64_t cpu_id = scheduled & 3;
      const uint64_t pick_cost = when & 0xffff;
      pending.push_back(queue.Schedule(when, [&fired, &sink, cpu_id, pick_cost] {
        ++fired;
        sink = fired + cpu_id + pick_cost;
      }));
      ++scheduled;
    }
    // Roughly one cancel attempt per fire — the simulator cancels heavily
    // (preemptions retire quantum timers, early wakes retire sleeps), and
    // misses on already-fired ids are exactly the Cancel() hot path.
    if (!pending.empty()) {
      const size_t victim = rng.NextBelow(pending.size());
      queue.Cancel(pending[victim]);
      pending[victim] = pending.back();
      pending.pop_back();
    }
    if (!queue.Empty()) {
      elsc::EventQueue::Fired event = queue.PopNext();
      now = event.when;
      event.fn();
    }
    if (pending.size() > 4096) {
      pending.clear();  // Stale ids; Cancel() on them is a no-op anyway.
    }
  }
  const double elapsed = elsc::NowSec() - start;
  if (out_stats != nullptr) {
    *out_stats = queue.stats();
  }
  const uint64_t ops = queue.stats().scheduled + queue.stats().fired + queue.stats().cancelled;
  return static_cast<double>(ops) / elapsed;
}

// Incomplete cells no longer abort the whole smoke: the supervisor already
// quarantined (and printed a repro for) anything that crashed or timed out,
// so record the damage and let BenchExit() turn it into a nonzero exit after
// every remaining number has been measured and written.
int g_incomplete_cells = 0;

double TimeMatrix(const std::vector<elsc::VolanoCellSpec>& cells, int jobs,
                  uint64_t* tasks_simulated = nullptr) {
  const double start = elsc::NowSec();
  const std::vector<elsc::VolanoRun> runs = elsc::RunVolanoCells(cells, jobs);
  const double elapsed = elsc::NowSec() - start;
  uint64_t tasks = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    tasks += runs[i].stats.machine.tasks_created;
    if (!runs[i].result.completed) {
      std::fprintf(stderr, "matrix cell %zu did not complete!\n", i);
      ++g_incomplete_cells;
    }
  }
  if (tasks_simulated != nullptr) {
    *tasks_simulated = tasks;
  }
  return elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t churn_events =
      argc > 1 ? static_cast<uint64_t>(std::atoll(argv[1])) : 3000000;
  const int rooms = argc > 2 ? std::atoi(argv[2]) : 5;

  elsc::PrintBenchHeader("Perf smoke",
                         "event-queue churn + 4-cell matrix wall-clock; JSON to "
                         "BENCH_perf_smoke.json");

  // 1. Event-queue hot path, single thread.
  elsc::EventQueueStats churn_stats;
  const double events_per_sec = EventQueueChurn(churn_events, &churn_stats);
  std::printf("event queue churn : %.0f ops/sec  (%llu scheduled, %llu fired, "
              "%llu cancelled, %llu heap allocs, %llu slab slots, depth %llu)\n",
              events_per_sec,
              static_cast<unsigned long long>(churn_stats.scheduled),
              static_cast<unsigned long long>(churn_stats.fired),
              static_cast<unsigned long long>(churn_stats.cancelled),
              static_cast<unsigned long long>(churn_stats.callback_heap_allocs),
              static_cast<unsigned long long>(churn_stats.slot_allocs),
              static_cast<unsigned long long>(churn_stats.max_heap_depth));

  // 2. 4-cell VolanoMark matrix, serial vs parallel.
  const std::vector<elsc::VolanoCellSpec> cells = {
      {elsc::KernelConfig::kUp, elsc::SchedulerKind::kLinux, rooms, 1},
      {elsc::KernelConfig::kUp, elsc::SchedulerKind::kElsc, rooms, 1},
      {elsc::KernelConfig::kSmp4, elsc::SchedulerKind::kLinux, rooms, 1},
      {elsc::KernelConfig::kSmp4, elsc::SchedulerKind::kElsc, rooms, 1},
  };
  const int jobs = elsc::BenchJobs();
  uint64_t matrix_tasks = 0;
  const double serial_sec = TimeMatrix(cells, 1, &matrix_tasks);
  const double parallel_sec = TimeMatrix(cells, jobs);
  // The scale metric (bench/scale_sweep reports the same number for sharded
  // runs): simulated tasks brought to completion per wall-clock second.
  const double tasks_per_wall_sec =
      serial_sec > 0.0 ? static_cast<double>(matrix_tasks) / serial_sec : 0.0;
  std::printf("4-cell matrix     : %.2fs at jobs=1, %.2fs at jobs=%d (%.2fx)\n",
              serial_sec, parallel_sec, jobs, serial_sec / parallel_sec);
  std::printf("matrix task rate  : %.0f tasks simulated per wall second "
              "(%llu tasks at jobs=1)\n",
              tasks_per_wall_sec,
              static_cast<unsigned long long>(matrix_tasks));

  elsc::JsonWriter json;
  json.Fixed("events_per_sec", events_per_sec, 0)
      .Field("churn_events", churn_events)
      .Counters("events", churn_stats, elsc::kEventQueueCounters)
      .Field("matrix_cells", cells.size())
      .Field("matrix_jobs", jobs)
      .Field("host_cpus", std::thread::hardware_concurrency())
      .Fixed("matrix_serial_sec", serial_sec, 3)
      .Fixed("matrix_parallel_sec", parallel_sec, 3)
      .Fixed("matrix_speedup", serial_sec / parallel_sec, 3)
      .Field("matrix_tasks_simulated", matrix_tasks)
      .Fixed("tasks_per_wall_sec", tasks_per_wall_sec, 1)
      .Counters("supervision", elsc::GlobalSupervisionStats(), elsc::kSupervisionCounters);
  const char* json_path = "BENCH_perf_smoke.json";
  if (!elsc::WriteBenchJson(json_path, json.Finish())) {
    return elsc::BenchExit(1);
  }
  std::printf("wrote %s\n", json_path);
  return elsc::BenchExit(g_incomplete_cells > 0 ? 1 : 0);
}
