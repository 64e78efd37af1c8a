// O(1) scaling sweep: what happens to each scheduler backend when the CPU
// count grows past the paper's 4-processor ceiling.
//
// The paper's global-runqueue-lock measurements stop at 4P; this sweep runs
// the same VolanoMark workload at 1/2/4/8/16/64 CPUs and charts two things:
//  * global-lock collapse — the stock and ELSC schedulers serialize every
//    schedule() on one lock, so lock-wait grows with CPU count until the
//    lock, not the pick, dominates cycles-per-schedule;
//  * the ELSC-vs-O(1) crossover — ELSC's bounded table search beats the
//    stock scan per pick, but only the per-CPU-queue backends (multiqueue,
//    o1) keep cycles-per-schedule flat once the lock collapses.
//
// The chart is descriptive, not asserted: CI only checks that the JSON is
// bit-identical across harness job counts (pure simulated data).
//
//   usage: o1_scaling [seed]
//
// Knobs (environment; a malformed value exits 2):
//   ELSC_CPUS     comma-separated CPU counts     (default "1,2,4,8,16,64")
//   ELSC_ROOMS    comma-separated room counts    (default "2,8")
//   ELSC_SCHEDS   comma-separated schedulers     (default "linux,elsc,multiqueue,o1")
//   ELSC_USERS    users per room                 (default 8)
//   ELSC_MSGS     messages per user              (default 10)
//   ELSC_TIMING   0 -> omit the wall-clock timing block from the JSON

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/experiment_util.h"
#include "src/base/json_writer.h"
#include "src/sched/factory.h"
#include "src/stats/ascii_chart.h"

namespace {

struct CellSpec {
  elsc::SchedulerKind scheduler;
  int cpus = 1;
  int rooms = 1;
};

struct Cell {
  CellSpec spec;
  elsc::VolanoRun run;
  std::string digest;
  double wall_sec = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed = argc > 1 ? static_cast<uint64_t>(std::atoll(argv[1])) : 42;
  const std::vector<int> cpu_counts = elsc::IntList("ELSC_CPUS", "1,2,4,8,16,64");
  const std::vector<int> room_counts = elsc::IntList("ELSC_ROOMS", "2,8");
  const std::vector<elsc::SchedulerKind> schedulers =
      elsc::Schedulers("ELSC_SCHEDS", "linux,elsc,multiqueue,o1");
  const int users = elsc::IntEnv("ELSC_USERS", 8);
  const int msgs = elsc::IntEnv("ELSC_MSGS", 10);
  const bool include_timing = elsc::FlagEnv("ELSC_TIMING", true);

  elsc::PrintBenchHeader(
      "O(1) scaling sweep (beyond the paper's 4P ceiling)",
      elsc::StrFormat("VolanoMark %d users/room x %d msgs per cell; "
                      "JSON to BENCH_o1_scaling.json",
                      users, msgs));

  std::vector<CellSpec> specs;
  for (const elsc::SchedulerKind kind : schedulers) {
    for (const int rooms : room_counts) {
      for (const int cpus : cpu_counts) {
        specs.push_back(CellSpec{kind, cpus, rooms});
      }
    }
  }

  const double sweep_start = elsc::NowSec();
  const std::vector<Cell> cells = elsc::RunBenchMatrix(
      "o1_scaling", specs.size(), [&](size_t i) {
        Cell cell;
        cell.spec = specs[i];
        // Built directly: KernelConfig tops out at the paper's kSmp4, and
        // this sweep exists to go past it.
        elsc::MachineConfig mc;
        mc.num_cpus = specs[i].cpus;
        mc.smp = true;
        mc.scheduler = specs[i].scheduler;
        mc.seed = seed;
        elsc::VolanoConfig vc;
        vc.rooms = specs[i].rooms;
        vc.users_per_room = users;
        vc.messages_per_user = msgs;
        const double start = elsc::NowSec();
        cell.run = elsc::RunVolano(mc, vc);
        cell.wall_sec = elsc::NowSec() - start;
        cell.digest = elsc::RunStatsDigest(cell.run.stats);
        return cell;
      });
  const double sweep_elapsed = elsc::NowSec() - sweep_start;

  std::printf("%-12s %5s %6s %6s %11s %10s %9s %8s %7s %7s %7s %8s\n", "sched",
              "cpus", "rooms", "tasks", "sched_calls", "cyc/sched", "lockwait%",
              "exam/cal", "dbllock", "pulls", "swaps", "verdict");
  bool all_ok = true;
  for (const Cell& cell : cells) {
    const elsc::RunStats& s = cell.run.stats;
    const bool ok = cell.run.result.completed && !s.failed;
    all_ok = all_ok && ok;
    const double lock_pct =
        s.sched.cycles_in_schedule > 0
            ? 100.0 * static_cast<double>(s.sched.lock_wait_cycles +
                                          s.sched.percpu_lock_wait_cycles) /
                  static_cast<double>(s.sched.cycles_in_schedule +
                                      s.sched.lock_wait_cycles)
            : 0.0;
    std::printf(
        "%-12s %5d %6d %6llu %11llu %10.0f %9.1f %8.2f %7llu %7llu %7llu %8s\n",
        elsc::SchedulerKindName(cell.spec.scheduler), cell.spec.cpus,
        cell.spec.rooms, (unsigned long long)s.machine.peak_live_tasks,
        (unsigned long long)s.sched.schedule_calls, s.sched.CyclesPerSchedule(),
        lock_pct, s.sched.TasksExaminedPerCall(),
        (unsigned long long)s.sched.double_locks,
        (unsigned long long)s.sched.pull_migrations,
        (unsigned long long)s.sched.array_swaps, ok ? "ok" : "FAIL");
    if (!ok && !s.failure.empty()) {
      std::printf("     diagnosis: %s\n", s.failure.c_str());
    }
  }

  // The chart: cycles-per-schedule (pick + its share of lock wait) versus
  // CPU count at the largest room count — the collapse/crossover picture.
  const int chart_rooms = room_counts.back();
  std::vector<std::string> x_labels;
  for (const int cpus : cpu_counts) {
    x_labels.push_back(elsc::StrFormat("%dP", cpus));
  }
  std::vector<elsc::Series> series;
  for (const elsc::SchedulerKind kind : schedulers) {
    elsc::Series s;
    s.name = elsc::SchedulerKindName(kind);
    for (const int cpus : cpu_counts) {
      for (const Cell& cell : cells) {
        if (cell.spec.scheduler == kind && cell.spec.cpus == cpus &&
            cell.spec.rooms == chart_rooms) {
          const elsc::SchedStats& ss = cell.run.stats.sched;
          const double lock_share =
              ss.schedule_calls > 0
                  ? static_cast<double>(ss.lock_wait_cycles +
                                        ss.percpu_lock_wait_cycles) /
                        static_cast<double>(ss.schedule_calls)
                  : 0.0;
          s.y.push_back(ss.CyclesPerSchedule() + lock_share);
        }
      }
    }
    series.push_back(std::move(s));
  }
  std::printf("\ncycles per schedule() incl. lock wait, %d rooms:\n%s\n",
              chart_rooms,
              elsc::RenderSeriesChart(x_labels, series).c_str());

  elsc::JsonWriter json;
  json.Field("bench", "o1_scaling")
      .Field("seed", seed)
      .Field("users_per_room", users)
      .Field("messages_per_user", msgs)
      .Array("cells");
  for (const Cell& cell : cells) {
    const elsc::RunStats& s = cell.run.stats;
    json.Object()
        .Field("scheduler", elsc::SchedulerKindName(cell.spec.scheduler))
        .Field("cpus", cell.spec.cpus)
        .Field("rooms", cell.spec.rooms)
        .Field("completed", cell.run.result.completed ? 1 : 0)
        .Counters("sched", s.sched, elsc::kSchedCounters)
        .Counters("machine", s.machine, elsc::kMachineCounters)
        .HexFloat("elapsed_sec", s.elapsed_sec)
        .HexFloat("throughput", cell.run.result.throughput)
        .Field("digest", cell.digest)
        .Field("engine", elsc::EngineDigest(s))
        .End();
  }
  json.End();
  if (include_timing) {
    json.Object("timing").HexFloat("sweep_wall_sec", sweep_elapsed).End();
  }
  const char* json_path = "BENCH_o1_scaling.json";
  if (!elsc::WriteBenchJson(json_path, json.Finish())) {
    return elsc::BenchExit(1);
  }
  std::printf("wrote %s (%zu cells in %.2fs wall)\n", json_path, cells.size(),
              sweep_elapsed);

  if (!all_ok) {
    std::fprintf(stderr, "o1 scaling sweep: RED — see above\n");
    return elsc::BenchExit(1);
  }
  return elsc::BenchExit(0);
}
