// Scale sweep: sharded parallel discrete-event mode (src/api/scale.h) pushed
// an order of magnitude past the largest serial scenario. Each cell runs ONE
// federation scenario — rooms split across per-node Machines, advanced by
// `shards` worker threads in conservative time-windowed lock-step — and the
// sweep reports tasks-simulated-per-wall-second and peak memory vs room
// count and shard count, per scheduler backend, to BENCH_scale.json.
//
// Determinism: the JSON cell bodies contain only simulated data, so they are
// byte-identical at any shard count and any ELSC_BENCH_JOBS; the bench
// additionally asserts in-process that every (rooms, scheduler) scenario
// produced the same digest at every shard count. Wall-clock numbers live in
// a separate "timing" block, omitted when ELSC_TIMING=0 so CI can
// byte-compare the files.
//
//   usage: scale_sweep [seed]
//
// Knobs (environment; a malformed value exits 2):
//   ELSC_ROOMS    comma-separated room counts   (default "40,200")
//   ELSC_SHARDS   comma-separated shard counts  (default "1,2,4")
//   ELSC_SCHEDS   comma-separated schedulers    (default "linux,elsc")
//   ELSC_USERS    users per room                (default 20)
//   ELSC_MSGS     messages per user             (default 10)
//   ELSC_KERNEL   per-node machine: UP|1P|2P|4P (default 1P)
//   ELSC_TIMING   0 -> omit the wall-clock timing block from the JSON
//
// Checkpoint/restore (docs/SCALE.md "Checkpoint & recovery"): with
// ELSC_SCALE_CKPT=<prefix> each cell writes checksummed segment files every
// ELSC_SCALE_CKPT_EVERY windows (keeping ELSC_SCALE_CKPT_KEEP), and a
// killed run resumes from the newest valid one to the identical JSON.
// ELSC_SCALE_INJECT_KILL=<window> _Exit(137)s at that barrier for recovery
// drills (scripts/ci_supervised.sh); SIGTERM/SIGINT exit 75 gracefully
// after flushing a final segment.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/experiment_util.h"
#include "src/api/scale.h"

int main(int argc, char** argv) {
  const uint64_t seed = argc > 1 ? static_cast<uint64_t>(std::atoll(argv[1])) : 42;
  const std::vector<int> room_counts = elsc::IntList("ELSC_ROOMS", "40,200");
  const std::vector<int> shard_counts = elsc::IntList("ELSC_SHARDS", "1,2,4");
  const std::vector<elsc::SchedulerKind> schedulers =
      elsc::Schedulers("ELSC_SCHEDS", "linux,elsc");
  const int users = elsc::IntEnv("ELSC_USERS", 20);
  const int msgs = elsc::IntEnv("ELSC_MSGS", 10);
  const elsc::KernelConfig kernel = elsc::KernelEnv("ELSC_KERNEL", "1P");
  const bool include_timing = elsc::FlagEnv("ELSC_TIMING", true);

  elsc::PrintBenchHeader(
      "Scale sweep (sharded parallel discrete-event mode)",
      elsc::StrFormat("one federation scenario per cell, %d users/room x %d "
                      "msgs, per-node machine %s; JSON to BENCH_scale.json",
                      users, msgs, elsc::KernelConfigLabel(kernel)));

  std::vector<elsc::ScaleConfig> specs;
  std::vector<int> spec_shards;
  for (const elsc::SchedulerKind kind : schedulers) {
    for (const int rooms : room_counts) {
      for (const int shards : shard_counts) {
        elsc::ScaleConfig config;
        config.rooms = rooms;
        config.chat.users_per_room = users;
        config.chat.messages_per_user = msgs;
        config.kernel = kernel;
        config.scheduler = kind;
        config.seed = seed;
        specs.push_back(config);
        spec_shards.push_back(shards);
      }
    }
  }

  // Cells run serially: each one is itself a multi-threaded scenario (its
  // shard pool wants the machine), and serial cells keep the per-cell
  // wall-clock measurements honest.
  const double sweep_start = elsc::NowSec();
  const std::vector<elsc::ScaleCell> cells = elsc::RunBenchMatrix(
      "scale_sweep", specs.size(),
      [&](size_t i) { return elsc::RunTimedScaleCell(specs[i], spec_shards[i]); },
      /*jobs=*/1);
  const double sweep_elapsed = elsc::NowSec() - sweep_start;

  std::printf("%-12s %6s %6s %6s %7s %9s %10s %8s %11s %10s %10s %8s\n",
              "sched", "rooms", "conns", "nodes", "shards", "windows",
              "delivered", "wall_s", "tasks/walls", "peak_tasks", "arena_kb",
              "verdict");
  bool all_ok = true;
  for (const elsc::ScaleCell& cell : cells) {
    const elsc::ScaleRun& r = cell.run;
    const bool ok = r.completed && !r.stats.failed;
    all_ok = all_ok && ok;
    std::printf("%-12s %6llu %6llu %6d %7d %9llu %10llu %8.2f %11.0f %10llu %10llu %8s\n",
                elsc::SchedulerKindName(cell.config.scheduler),
                static_cast<unsigned long long>(r.rooms),
                static_cast<unsigned long long>(r.connections), r.nodes,
                r.shards, static_cast<unsigned long long>(r.windows),
                static_cast<unsigned long long>(r.messages_delivered),
                cell.wall_sec, cell.tasks_per_wall_sec,
                static_cast<unsigned long long>(r.peak_live_tasks),
                static_cast<unsigned long long>(r.peak_task_arena_bytes / 1024),
                ok ? "ok" : "FAIL");
    if (!ok && !r.stats.failure.empty()) {
      std::printf("     diagnosis: %s\n", r.stats.failure.c_str());
    }
  }

  // The determinism contract, checked in-process: every shard count of the
  // same (scheduler, rooms) scenario must have produced the same digest.
  bool deterministic = true;
  std::map<std::pair<int, int>, uint64_t> golden;  // (sched, rooms) -> digest.
  for (const elsc::ScaleCell& cell : cells) {
    const auto key = std::make_pair(static_cast<int>(cell.config.scheduler),
                                    cell.config.rooms);
    const auto [it, inserted] = golden.emplace(key, cell.run.digest);
    if (!inserted && it->second != cell.run.digest) {
      deterministic = false;
      std::fprintf(stderr,
                   "DIGEST MISMATCH: %s rooms=%d shards=%d -> %016llx, "
                   "expected %016llx\n",
                   elsc::SchedulerKindName(cell.config.scheduler),
                   cell.config.rooms, cell.run.shards,
                   static_cast<unsigned long long>(cell.run.digest),
                   static_cast<unsigned long long>(it->second));
    }
  }
  std::printf("digest check: %s across shard counts\n",
              deterministic ? "bit-identical" : "MISMATCH");

  const char* json_path = "BENCH_scale.json";
  if (!elsc::WriteBenchJson(json_path, elsc::RenderScaleJson(cells, seed, include_timing))) {
    return elsc::BenchExit(1);
  }
  std::printf("wrote %s (%zu cells in %.2fs wall)\n", json_path, cells.size(),
              sweep_elapsed);

  if (!all_ok || !deterministic) {
    std::fprintf(stderr, "scale sweep: RED — see above\n");
    return elsc::BenchExit(1);
  }
  return elsc::BenchExit(0);
}
