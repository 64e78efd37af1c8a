// Deterministic fault-injection plans (the repo's chaos layer).
//
// A FaultPlan is a pure-data description of hostile conditions to inject
// into a run: timer-tick jitter/loss, fork/exit storms, spurious wait-queue
// wakeups, sched_yield hammering, CPU stall/hotplug windows, and lock-holder
// preemption spikes. Everything is derived from `seed`, so a plan replayed
// against the same machine configuration produces a bit-identical run — the
// harness fans chaos cells across worker threads exactly like any other
// matrix cell.
//
// All injectors default to off; a default-constructed FaultPlan is a no-op.

#ifndef SRC_FAULTS_FAULT_PLAN_H_
#define SRC_FAULTS_FAULT_PLAN_H_

#include <cstdint>

#include "src/base/rng.h"
#include "src/base/time_units.h"
#include "src/base/token_codec.h"

namespace elsc {

struct FaultPlan {
  // Seed for the injector's private RNG (victim choice, jitter magnitudes,
  // storm shapes). Independent of the machine's own seed.
  uint64_t seed = 1;

  // -- Timer chaos: every `timer_period`, drop the next tick with
  //    probability `tick_drop_rate` and add uniform jitter in
  //    [0, tick_jitter_max] cycles to the timer's next re-arm.
  Cycles timer_period = 0;  // 0 = off
  double tick_drop_rate = 0.0;
  Cycles tick_jitter_max = 0;

  // -- Fork/exit storms: every `fork_storm_period`, create a forker task
  //    that forks `fork_storm_children` short-lived spinner children and
  //    exits; at most `fork_storm_bursts` bursts per run.
  Cycles fork_storm_period = 0;  // 0 = off
  int fork_storm_children = 0;
  int fork_storm_bursts = 0;

  // -- Spurious wakeups: every `spurious_wake_period`, WakeUpProcess() is
  //    called on `spurious_wakes_per_burst` tasks picked uniformly from the
  //    whole task table — sleepers get genuinely early wakes, runnable and
  //    zombie victims exercise the tolerate-spurious-wake paths.
  Cycles spurious_wake_period = 0;  // 0 = off
  int spurious_wakes_per_burst = 0;

  // -- sched_yield hammering: `yield_hammer_tasks` yield-loop tasks created
  //    when the injector arms; each yields `yield_hammer_iterations` times
  //    (tiny bursts) and exits.
  int yield_hammer_tasks = 0;  // 0 = off
  int yield_hammer_iterations = 0;

  // -- CPU stall/hotplug: every `cpu_stall_period`, one uniformly-chosen CPU
  //    stops taking ticks and executing for `cpu_stall_duration`, then
  //    rejoins; at most `cpu_stall_count` stalls per run.
  Cycles cpu_stall_period = 0;  // 0 = off
  Cycles cpu_stall_duration = 0;
  int cpu_stall_count = 0;

  // -- Lock-holder preemption: every `lock_stall_period`, the next
  //    schedule() pick holds the global run-queue lock `lock_stall_cycles`
  //    longer (per-CPU-queue schedulers ignore this — they never take it).
  Cycles lock_stall_period = 0;  // 0 = off
  Cycles lock_stall_cycles = 0;

  // -- Connection-lifecycle chaos. These act on the sockets a workload hands
  //    to FaultInjector::AttachLifecycleTargets(); with no targets attached
  //    they are inert even when enabled, so workloads that predate the
  //    lifecycle layer are unaffected by any plan.
  //
  //    Random resets: every `conn_reset_period`, ResetByPeer() on
  //    `conn_resets_per_burst` uniformly-chosen targets (ECONNRESET storms).
  Cycles conn_reset_period = 0;  // 0 = off
  int conn_resets_per_burst = 0;
  //    Half-open peers: every `half_open_period`, one uniformly-chosen open
  //    target's peer reader dies silently (writer keeps sending).
  Cycles half_open_period = 0;  // 0 = off
  //    Slow peers: every `slow_peer_period`, one target is throttled to an
  //    effective capacity of 1 for `slow_peer_duration`, then released.
  Cycles slow_peer_period = 0;  // 0 = off
  Cycles slow_peer_duration = 0;
  //    Reconnect storms: every `reconnect_storm_period`, ResetByPeer() on
  //    `reconnect_storm_size` targets at the same instant, so every victim's
  //    client re-establishes simultaneously — the thundering-herd reconnect.
  Cycles reconnect_storm_period = 0;  // 0 = off
  int reconnect_storm_size = 0;

  bool ConnChaosEnabled() const {
    return conn_reset_period > 0 || half_open_period > 0 ||
           slow_peer_period > 0 || reconnect_storm_period > 0;
  }

  bool Enabled() const {
    return timer_period > 0 || fork_storm_period > 0 ||
           spurious_wake_period > 0 || yield_hammer_tasks > 0 ||
           cpu_stall_period > 0 || lock_stall_period > 0 ||
           ConnChaosEnabled();
  }
};

// What the injector actually did; part of RunStats so chaos benches can
// report per-injector activity next to the audit verdict.
struct FaultStats {
  uint64_t tick_drops = 0;      // Ticks lost.
  uint64_t tick_jitters = 0;    // Re-arms perturbed.
  uint64_t storm_bursts = 0;    // Fork storms launched.
  uint64_t storm_tasks = 0;     // Tasks created by storms (forkers + children).
  uint64_t spurious_wakes = 0;  // WakeUpProcess() calls injected.
  uint64_t yield_tasks = 0;     // Yield-hammer tasks created.
  uint64_t cpu_stalls = 0;      // Stall windows entered.
  uint64_t lock_stalls = 0;     // Lock-holder spikes injected.
  // Connection-lifecycle chaos (zero unless a workload attached targets).
  uint64_t conn_resets = 0;        // ResetByPeer() transitions injected.
  uint64_t conn_half_opens = 0;    // Peer readers killed.
  uint64_t slow_peer_windows = 0;  // Throttle windows opened.
  uint64_t reconnect_storms = 0;   // Mass-reset storms launched.
};

// Every FaultStats counter, in codec order.
inline constexpr Counter<FaultStats> kFaultCounters[] = {
    ELSC_COUNTER(FaultStats, tick_drops), ELSC_COUNTER(FaultStats, tick_jitters),
    ELSC_COUNTER(FaultStats, storm_bursts), ELSC_COUNTER(FaultStats, storm_tasks),
    ELSC_COUNTER(FaultStats, spurious_wakes), ELSC_COUNTER(FaultStats, yield_tasks),
    ELSC_COUNTER(FaultStats, cpu_stalls), ELSC_COUNTER(FaultStats, lock_stalls),
    ELSC_COUNTER(FaultStats, conn_resets), ELSC_COUNTER(FaultStats, conn_half_opens),
    ELSC_COUNTER(FaultStats, slow_peer_windows), ELSC_COUNTER(FaultStats, reconnect_storms),
};

// ---------------------------------------------------------------------------
// Federation failure model (the sharded scale layer, src/api/scale.h).
// ---------------------------------------------------------------------------
//
// Where FaultPlan perturbs one machine from the inside, FederationFaultPlan
// describes cluster-level hostility: node crashes/restarts, inter-node link
// partitions, and fabric message loss/duplication. Every decision below is a
// pure function of (seed, structural key) — node index for crash schedules,
// (src, dst) for partitions, (src, dst, seq) for per-message chaos — never
// of shard assignment, thread timing, or delivery history. Injection is
// therefore bit-identical at any shard count and any ELSC_BENCH_JOBS, the
// same discipline the in-machine injectors get from their private RNG.

struct FederationFaultPlan {
  uint64_t seed = 1;

  // -- Node crashes: with probability node_crash_rate, node i crashes at
  //    window  crash_window_min + h % crash_window_span  and stays down for
  //    down_windows_min + h' % down_windows_span  windows before the
  //    coordinator rebuilds it (derived seed, unfinished rooms only).
  double node_crash_rate = 0.0;
  uint64_t crash_window_min = 2;
  uint64_t crash_window_span = 16;
  uint64_t down_windows_min = 2;
  uint64_t down_windows_span = 4;

  // -- Directed link partitions: with probability link_partition_rate the
  //    (src, dst) link drops every message drained during windows
  //    [start, start + duration).
  double link_partition_rate = 0.0;
  uint64_t partition_window_min = 1;
  uint64_t partition_window_span = 12;
  uint64_t partition_duration_min = 2;
  uint64_t partition_duration_span = 6;

  // -- Per-message fabric chaos, keyed by (src, dst, seq): independent drop
  //    and duplicate coin flips on every drained message.
  double loss_rate = 0.0;
  double dup_rate = 0.0;

  bool Enabled() const {
    return node_crash_rate > 0.0 || link_partition_rate > 0.0 ||
           loss_rate > 0.0 || dup_rate > 0.0;
  }

  // Uniform [0,1) from a hash — 53 mantissa bits, standard conversion.
  static double U01(uint64_t h) {
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  }

  // splitmix64 (src/base/rng.h) of `key` xor the splitmix64 of `value`:
  // every decision below hashes one of these.
  static uint64_t KeyedHash(uint64_t key, uint64_t value) {
    uint64_t state = key ^ SplitMix64(&value);
    return SplitMix64(&state);
  }

  uint64_t NodeKey(int node, uint64_t salt) const {
    return KeyedHash(seed, static_cast<uint64_t>(node) * 0x9e3779b97f4a7c15ull + salt);
  }
  uint64_t LinkKey(int src, int dst, uint64_t salt) const {
    return KeyedHash(seed, (static_cast<uint64_t>(src) << 32) ^ static_cast<uint64_t>(dst) ^ salt);
  }

  bool NodeCrashes(int node) const {
    return node_crash_rate > 0.0 && U01(NodeKey(node, 0x11)) < node_crash_rate;
  }
  // Window index (1-based, matching the coordinator's loop) of the crash.
  uint64_t CrashWindow(int node) const {
    const uint64_t span = crash_window_span == 0 ? 1 : crash_window_span;
    uint64_t w = crash_window_min + NodeKey(node, 0x22) % span;
    return w == 0 ? 1 : w;
  }
  uint64_t DownWindows(int node) const {
    const uint64_t span = down_windows_span == 0 ? 1 : down_windows_span;
    const uint64_t d = down_windows_min + NodeKey(node, 0x33) % span;
    return d == 0 ? 1 : d;
  }
  uint64_t RestartWindow(int node) const {
    return CrashWindow(node) + DownWindows(node);
  }

  bool LinkPartitioned(int src, int dst, uint64_t window) const {
    if (link_partition_rate <= 0.0) {
      return false;
    }
    if (U01(LinkKey(src, dst, 0x44)) >= link_partition_rate) {
      return false;
    }
    const uint64_t wspan = partition_window_span == 0 ? 1 : partition_window_span;
    const uint64_t dspan = partition_duration_span == 0 ? 1 : partition_duration_span;
    const uint64_t start = partition_window_min + LinkKey(src, dst, 0x55) % wspan;
    const uint64_t duration =
        partition_duration_min + LinkKey(src, dst, 0x66) % dspan;
    return window >= start && window < start + duration;
  }

  bool DropMessage(int src, int dst, uint64_t seq) const {
    return loss_rate > 0.0 &&
           U01(KeyedHash(LinkKey(src, dst, 0x77), seq)) < loss_rate;
  }
  bool DuplicateMessage(int src, int dst, uint64_t seq) const {
    return dup_rate > 0.0 &&
           U01(KeyedHash(LinkKey(src, dst, 0x88), seq)) < dup_rate;
  }
};

// Federation chaos at moderate intensity: roughly half the nodes crash once,
// a quarter of the directed links partition for a few windows, and the
// fabric drops 10% / duplicates 5% of drained messages.
inline FederationFaultPlan FederationChaosPlan(uint64_t seed) {
  FederationFaultPlan plan;
  plan.seed = seed;
  plan.node_crash_rate = 0.5;
  plan.link_partition_rate = 0.25;
  plan.loss_rate = 0.10;
  plan.dup_rate = 0.05;
  return plan;
}

// Connection-lifecycle chaos at moderate intensity: reset storms, half-open
// peers, slow peers, and periodic mass reconnects. Kept separate from
// FullChaosPlan — the golden chaos cells replay FullChaosPlan's exact event
// stream, so that preset must never grow new injectors.
inline FaultPlan ConnChaosPlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.conn_reset_period = MsToCycles(40);
  plan.conn_resets_per_burst = 2;
  plan.half_open_period = MsToCycles(300);
  plan.slow_peer_period = MsToCycles(150);
  plan.slow_peer_duration = MsToCycles(60);
  plan.reconnect_storm_period = MsToCycles(500);
  plan.reconnect_storm_size = 8;
  return plan;
}

// Every injector on at moderate intensity — the chaos-smoke preset.
inline FaultPlan FullChaosPlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.timer_period = MsToCycles(30);
  plan.tick_drop_rate = 0.25;
  plan.tick_jitter_max = MsToCycles(2);
  plan.fork_storm_period = MsToCycles(250);
  plan.fork_storm_children = 4;
  plan.fork_storm_bursts = 8;
  plan.spurious_wake_period = MsToCycles(20);
  plan.spurious_wakes_per_burst = 3;
  plan.yield_hammer_tasks = 4;
  plan.yield_hammer_iterations = 60;
  plan.cpu_stall_period = MsToCycles(400);
  plan.cpu_stall_duration = MsToCycles(50);
  plan.cpu_stall_count = 6;
  plan.lock_stall_period = MsToCycles(80);
  plan.lock_stall_cycles = UsToCycles(500);
  return plan;
}

}  // namespace elsc

#endif  // SRC_FAULTS_FAULT_PLAN_H_
