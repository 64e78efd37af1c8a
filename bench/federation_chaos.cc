// Federation chaos sweep: the failure model (docs/SCALE.md "Failure model")
// exercised as an experiment. Each cell runs ONE chaos-armed federation —
// seeded node crashes, a lossy/duplicating fabric, and the ack/retransmit
// recovery protocol — and the sweep reports availability (crashes, degraded
// windows, deliveries lost, goodput) versus crash rate, per scheduler, to
// BENCH_federation_chaos.json.
//
// Every crash rate also runs a no-retransmit CONTROL column (identical fault
// plan, recovery protocol off): the gap between the control's
// deliveries_lost and the armed column's is the protocol's measured value,
// and the bench asserts the armed column never does worse.
//
// Determinism: chaos is part of the config (FederationFaultPlan is a pure
// function of its seed), so the JSON body is byte-identical at any shard
// count and any ELSC_BENCH_JOBS — the bench asserts in-process that every
// (scheduler, crash rate, retransmit) scenario produced the same digest at
// every shard count, and scripts/ci_bench.sh byte-compares the files.
//
//   usage: federation_chaos [seed]
//
// Knobs (environment; a malformed value exits 2):
//   ELSC_ROOMS    rooms in the federation          (default 8)
//   ELSC_SHARDS   comma-separated shard counts     (default "1,2,4")
//   ELSC_SCHEDS   comma-separated schedulers       (default "linux,elsc")
//   ELSC_CRASH    comma-separated crash rates x100 (default "0,50,100")
//   ELSC_LOSS     fabric loss rate x100            (default 10)
//   ELSC_USERS    users per room                   (default 8)
//   ELSC_MSGS     messages per user                (default 16)
//   ELSC_KERNEL   per-node machine: UP|1P|2P|4P    (default 1P)
//   ELSC_TIMING   0 -> omit the wall-clock timing block from the JSON
//
// The scale layer's checkpoint/restore knobs apply here too (cells run
// through RunShardedVolano): ELSC_SCALE_CKPT / _EVERY / _KEEP and
// ELSC_SCALE_INJECT_KILL; see docs/SCALE.md "Checkpoint & recovery".

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench/experiment_util.h"
#include "src/api/scale.h"

namespace {

// One sweep point: (scheduler, crash-rate-percent, retransmit on/off) — the
// retransmit=false rows are the control column.
struct Point {
  elsc::SchedulerKind scheduler = elsc::SchedulerKind::kElsc;
  int crash_pct = 0;
  bool retransmit = true;
  int shards = 1;
};

elsc::ScaleConfig PointConfig(const Point& point, uint64_t seed, int rooms,
                              int users, int msgs, int loss_pct,
                              elsc::KernelConfig kernel) {
  elsc::ScaleConfig config;
  config.rooms = rooms;
  config.chat.users_per_room = users;
  config.chat.messages_per_user = msgs;
  config.kernel = kernel;
  config.scheduler = point.scheduler;
  config.seed = seed;
  // The chaos plan: crash rate from the sweep axis, loss/dup from the knobs.
  // Armed even at crash rate 0 so every row runs the same (recovery) code
  // path and the crash axis isolates exactly one variable.
  config.faults = elsc::FederationChaosPlan(seed + 0x9e37);
  config.faults.node_crash_rate = point.crash_pct / 100.0;
  config.faults.link_partition_rate = 0.0;
  config.faults.loss_rate = loss_pct / 100.0;
  config.faults.dup_rate = loss_pct / 200.0;
  config.retransmit = point.retransmit;
  // Frequent gossip gives retransmission timers room to fire before the
  // chat drains; a bounded lane keeps a downed destination from growing
  // fabric memory without bound.
  config.gossip_period = elsc::MsToCycles(5);
  config.fabric_lane_capacity = 4096;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed = elsc::IntArg(argc, argv, 1, "seed", 42, 0, INT64_MAX);
  const std::vector<int> shard_counts = elsc::IntList("ELSC_SHARDS", "1,2,4");
  const std::vector<int> crash_pcts = elsc::IntList("ELSC_CRASH", "0,50,100", 0);
  const std::vector<elsc::SchedulerKind> schedulers =
      elsc::Schedulers("ELSC_SCHEDS", "linux,elsc");
  const int rooms = elsc::IntEnv("ELSC_ROOMS", 8);
  const int users = elsc::IntEnv("ELSC_USERS", 8);
  const int msgs = elsc::IntEnv("ELSC_MSGS", 16);
  const int loss_pct = elsc::IntEnv("ELSC_LOSS", 10, 0);
  const elsc::KernelConfig kernel = elsc::KernelEnv("ELSC_KERNEL", "1P");
  const bool include_timing = elsc::FlagEnv("ELSC_TIMING", true);

  elsc::PrintBenchHeader(
      "Federation chaos sweep (failure model + recovery protocol)",
      elsc::StrFormat("%d rooms x %d users x %d msgs, %d%% loss, per-node "
                      "machine %s; JSON to BENCH_federation_chaos.json",
                      rooms, users, msgs, loss_pct,
                      elsc::KernelConfigLabel(kernel)));

  // Armed rows run at every shard count (they all must agree bit-for-bit);
  // the control column runs once per (scheduler, crash rate) at the first
  // shard count — its digest is compared against nothing, its
  // deliveries_lost against everything.
  std::vector<Point> points;
  for (const elsc::SchedulerKind kind : schedulers) {
    for (const int crash_pct : crash_pcts) {
      for (const int shards : shard_counts) {
        points.push_back({kind, crash_pct, /*retransmit=*/true, shards});
      }
      points.push_back({kind, crash_pct, /*retransmit=*/false, shard_counts[0]});
    }
  }

  // Cells run serially: each is itself a multi-threaded scenario, and serial
  // cells keep the per-cell wall-clock measurements honest.
  const double sweep_start = elsc::NowSec();
  const std::vector<elsc::ScaleCell> cells = elsc::RunBenchMatrix(
      "federation_chaos", points.size(),
      [&](size_t i) {
        return elsc::RunTimedScaleCell(
            PointConfig(points[i], seed, rooms, users, msgs, loss_pct, kernel),
            points[i].shards);
      },
      /*jobs=*/1);
  const double sweep_elapsed = elsc::NowSec() - sweep_start;

  std::printf("%-12s %6s %5s %7s %8s %9s %6s %6s %6s %9s %11s %8s\n", "sched",
              "crash%", "retx", "shards", "crashes", "degraded", "lost",
              "retxed", "aband", "delivered", "goodput", "verdict");
  bool all_ok = true;
  for (size_t i = 0; i < cells.size(); ++i) {
    const elsc::ScaleRun& r = cells[i].run;
    const bool ok = r.completed && !r.stats.failed;
    all_ok = all_ok && ok;
    std::printf(
        "%-12s %6d %5s %7d %8llu %9llu %6llu %6llu %6llu %9llu %11.0f %8s\n",
        elsc::SchedulerKindName(cells[i].config.scheduler),
        points[i].crash_pct, points[i].retransmit ? "on" : "off",
        points[i].shards, static_cast<unsigned long long>(r.node_crashes),
        static_cast<unsigned long long>(r.windows_degraded),
        static_cast<unsigned long long>(r.deliveries_lost),
        static_cast<unsigned long long>(r.fed.retransmits),
        static_cast<unsigned long long>(r.fed.retx_abandoned),
        static_cast<unsigned long long>(r.messages_delivered), r.goodput,
        ok ? "ok" : "FAIL");
    if (!ok && !r.stats.failure.empty()) {
      std::printf("     diagnosis: %s\n", r.stats.failure.c_str());
    }
  }

  // Gate 1, determinism: every shard count of the same (scheduler, crash
  // rate, retransmit) scenario produced the same digest.
  bool deterministic = true;
  std::map<std::tuple<int, int, bool>, uint64_t> golden;
  for (size_t i = 0; i < cells.size(); ++i) {
    const auto key = std::make_tuple(static_cast<int>(points[i].scheduler),
                                     points[i].crash_pct, points[i].retransmit);
    const auto [it, inserted] = golden.emplace(key, cells[i].run.digest);
    if (!inserted && it->second != cells[i].run.digest) {
      deterministic = false;
      std::fprintf(stderr,
                   "DIGEST MISMATCH: %s crash=%d%% retx=%d shards=%d -> "
                   "%016llx, expected %016llx\n",
                   elsc::SchedulerKindName(points[i].scheduler),
                   points[i].crash_pct, points[i].retransmit ? 1 : 0,
                   points[i].shards,
                   static_cast<unsigned long long>(cells[i].run.digest),
                   static_cast<unsigned long long>(it->second));
    }
  }
  std::printf("digest check: %s across shard counts\n",
              deterministic ? "bit-identical" : "MISMATCH");

  // Gate 2, the protocol's teeth: at every (scheduler, crash rate), the
  // armed column must not lose more deliveries than its control.
  bool protocol_ok = true;
  std::map<std::pair<int, int>, uint64_t> control_lost;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (!points[i].retransmit) {
      control_lost[{static_cast<int>(points[i].scheduler),
                    points[i].crash_pct}] = cells[i].run.deliveries_lost;
    }
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    if (!points[i].retransmit) {
      continue;
    }
    const auto it = control_lost.find(
        {static_cast<int>(points[i].scheduler), points[i].crash_pct});
    if (it != control_lost.end() && cells[i].run.deliveries_lost > it->second) {
      protocol_ok = false;
      std::fprintf(stderr,
                   "RECOVERY REGRESSION: %s crash=%d%% lost %llu with "
                   "retransmission vs %llu without\n",
                   elsc::SchedulerKindName(points[i].scheduler),
                   points[i].crash_pct,
                   static_cast<unsigned long long>(cells[i].run.deliveries_lost),
                   static_cast<unsigned long long>(it->second));
    }
  }
  std::printf("recovery check: retransmission %s the no-retransmit control\n",
              protocol_ok ? "never loses to" : "LOSES to");

  const char* json_path = "BENCH_federation_chaos.json";
  if (!elsc::WriteBenchJson(json_path, elsc::RenderScaleJson(cells, seed, include_timing))) {
    return elsc::BenchExit(1);
  }
  std::printf("wrote %s (%zu cells in %.2fs wall)\n", json_path, cells.size(),
              sweep_elapsed);

  if (!all_ok || !deterministic || !protocol_ok) {
    std::fprintf(stderr, "federation chaos: RED — see above\n");
    return elsc::BenchExit(1);
  }
  return elsc::BenchExit(0);
}
