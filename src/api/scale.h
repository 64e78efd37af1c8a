// Sharded parallel discrete-event mode: one scenario across worker threads.
//
// Every experiment so far parallelizes *across* matrix cells; a single cell
// is strictly serial, which caps the largest simulable scenario at tens of
// VolanoMark rooms. This layer runs ONE scenario — a federation of chat
// servers — across worker threads:
//
//   * The scenario is partitioned into `nodes`: each node owns an
//     independent Engine+Machine simulating `rooms_per_node` rooms (its own
//     VolanoWorkload — a chat server process in the federation). The
//     partition is scenario *structure*, not an execution knob: co-located
//     rooms share a scheduler, so changing rooms_per_node changes the
//     simulated system.
//   * `shards` worker threads advance the nodes in conservative
//     time-windowed lock-step: every node runs to the barrier B_k =
//     (k+1) * window, then the single-threaded coordinator exchanges
//     cross-node traffic (src/sim/fabric.h), folds finished nodes into the
//     aggregate, and releases the next window. Shard count is pure
//     execution parallelism — results are bit-identical at any value, and
//     at any ELSC_BENCH_JOBS when cells of a sweep run concurrently.
//   * Cross-node traffic: each node's federation relay gossips per-room
//     progress beacons to its ring successor every `gossip_period`; beacons
//     ride the fabric with latency >= window (the conservative rule) and
//     land in the destination's bounded inbox, where a receiver task drains
//     and processes them. Real scheduler-visible load — the relays block,
//     wake, and compete for CPU like every other task.
//   * Streaming aggregation: a node that completes is folded into the
//     running RunStats/digest (MergeRunStats) and destroyed at that
//     barrier, so peak memory tracks the *live* scenario, not its total
//     history. Memory high-water marks are sampled at every barrier.
//
// Determinism contract: ScaleRun::digest (and RenderScaleJson output) are
// pure functions of ScaleConfig — independent of shard count, job count,
// and host timing. tests/scale_test.cc pins this with golden digests at
// shard counts 1/2/4 and ELSC_BENCH_JOBS 1/2/4. See docs/SCALE.md.

#ifndef SRC_API_SCALE_H_
#define SRC_API_SCALE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/api/simulation.h"
#include "src/base/token_codec.h"
#include "src/net/backoff.h"
#include "src/sim/fabric.h"

namespace elsc {

// Checkpointing knobs (scale_ckpt.h), resolved from the environment when
// ScaleConfig's copy has an empty path. Never part of the
// digest/signature/JSON.
struct ScaleCheckpointOptions {
  std::string path;   // Segment path prefix; empty = checkpointing off.
  uint64_t every = 16;  // Segment cadence in windows (0 = forced-only).
  int keep = 2;         // Newest segments retained per scenario.
  // Test hook: force a segment at this window and return a partial
  // (completed == false) run instead of continuing — a process kill without
  // killing the test process. 0 = off.
  uint64_t stop_after_window = 0;

  bool armed() const { return !path.empty(); }
  // ELSC_SCALE_CKPT (a path prefix), ELSC_SCALE_CKPT_EVERY (an integer
  // >= 0) and ELSC_SCALE_CKPT_KEEP (an integer >= 1) over the defaults
  // above; a malformed value exits 2 (src/base/knob.h).
  static ScaleCheckpointOptions FromEnv();
};

struct ScaleConfig {
  // Scenario shape: `rooms` total rooms, split into nodes of
  // `rooms_per_node` each (the last node takes the remainder).
  int rooms = 40;
  int rooms_per_node = 1;
  // Per-node chat parameters; `chat.rooms` is overridden with the node's
  // share. Scale scenarios usually reduce messages_per_user — the point is
  // breadth (rooms x connections), not per-room depth.
  VolanoConfig chat;
  // Per-node machine: every node is one chat-server host.
  KernelConfig kernel = KernelConfig::kSmp1;
  SchedulerKind scheduler = SchedulerKind::kElsc;
  uint64_t seed = 1;

  // Conservative lock-step parameters. fabric_latency == 0 means one
  // window; RunShardedVolano aborts unless latency >= window.
  Cycles window = MsToCycles(10);
  Cycles fabric_latency = 0;

  // Federation gossip (the cross-node traffic). gossip_period == 0 disables
  // the fabric entirely (independent nodes — pure scaling measurements).
  Cycles gossip_period = MsToCycles(20);
  Cycles beacon_cycles = UsToCycles(30);          // CPU to compose one beacon.
  Cycles gossip_process_cycles = UsToCycles(50);  // CPU to apply one beacon.
  size_t fabric_inbox_capacity = 64;

  // Simulated-time safety net: a scenario still live past this is declared
  // failed (the sharded analog of RunVolano's deadline).
  Cycles deadline = SecToCycles(3600);

  // -- Failure model (docs/SCALE.md "Failure model"). Default-disabled: a
  //    fault-free config runs fire-and-forget beacons, with no link
  //    sequence ids and no acks.
  FederationFaultPlan faults;
  // Recovery protocol, armed only when faults.Enabled(): beacons carry
  // per-link sequence numbers, receivers return cumulative acks, and — when
  // `retransmit` is true — unacked beacons are retransmitted on gossip wakes
  // under `retransmit_backoff`. retransmit = false is the no-retransmit
  // control column of bench/federation_chaos.
  bool retransmit = true;
  BackoffPolicy retransmit_backoff;
  size_t retransmit_buffer = 128;  // Unacked beacons retained per node.
  // A receiver seeing a sequence gap wider than this (or a full reorder
  // buffer) jumps past the gap: the skipped beacons are the protocol's
  // deliveries_lost.
  size_t recovery_gap_span = 32;
  // Per-source fabric lane bound (0 = unbounded): a partitioned destination
  // cannot grow fabric memory without bound, overflow is a counted drop.
  size_t fabric_lane_capacity = 0;
  // Per-window wall-clock watchdog armed on every shard thread (and the
  // serial loop): 0 = take ELSC_CELL_TIMEOUT_MS from the environment (unset
  // = off), negative = force off. A stuck federation folds into a
  // completed=false run instead of hanging the process.
  double window_wall_budget_sec = 0.0;

  // Window-granular checkpoint/restore (scale_ckpt.h, docs/SCALE.md
  // "Checkpoint & recovery"). When path is empty the options resolve from
  // ELSC_SCALE_CKPT* at run time; fully disabled when that is unset too.
  // Execution machinery, like `shards` and the wall budget — never part of
  // the digest, signature, JSON, or config fingerprint.
  ScaleCheckpointOptions ckpt;

  int nodes() const {
    return rooms_per_node > 0 ? (rooms + rooms_per_node - 1) / rooms_per_node : rooms;
  }
  uint64_t connections() const {
    return static_cast<uint64_t>(rooms) * static_cast<uint64_t>(chat.users_per_room);
  }
};

// A federation node's traffic and recovery counters, and their sum over a
// run. Every copy — the live node, its boot snapshot, the aggregate, both
// checkpoint records, the verification line — is one assignment, one `+=`
// or one codec call (AppendCounters/ReadCounters, src/base/token_codec.h),
// so a new counter is one field here plus one entry in
// kFederationCounterFields.
struct FederationCounters {
  uint64_t beacons_sent = 0;      // Unique beacons (retransmits not counted).
  uint64_t beacons_received = 0;  // Unique beacons processed by receivers.
  uint64_t inbox_overflows = 0;   // Deliveries refused by a full inbox.
  uint64_t late_writes = 0;       // Deliveries landing on a closed inbox.
  // Recovery protocol (failure model only; zero fault-free).
  uint64_t retransmits = 0;       // Beacon re-emissions by the protocol.
  uint64_t retx_abandoned = 0;    // Unacked beacons given up on (retries
                                  // exhausted or buffer overflow).
  uint64_t dup_discards = 0;      // Received beacons discarded as duplicates.
  uint64_t acks_sent = 0;
  uint64_t acks_received = 0;
  // Crash accounting, written by the coordinator when a node crashes.
  uint64_t chat_messages_lost = 0;      // Partial-room chat work thrown away
                                        // (re-run after restart).
  uint64_t crash_inflight_dropped = 0;  // Fabric deliveries destroyed with
                                        // the node (inbox + scheduled).

  FederationCounters& operator+=(const FederationCounters& other);
  bool operator==(const FederationCounters&) const = default;
};

// Every counter, in codec order.
inline constexpr Counter<FederationCounters> kFederationCounterFields[] = {
    ELSC_COUNTER(FederationCounters, beacons_sent),
    ELSC_COUNTER(FederationCounters, beacons_received),
    ELSC_COUNTER(FederationCounters, inbox_overflows),
    ELSC_COUNTER(FederationCounters, late_writes), ELSC_COUNTER(FederationCounters, retransmits),
    ELSC_COUNTER(FederationCounters, retx_abandoned),
    ELSC_COUNTER(FederationCounters, dup_discards), ELSC_COUNTER(FederationCounters, acks_sent),
    ELSC_COUNTER(FederationCounters, acks_received),
    ELSC_COUNTER(FederationCounters, chat_messages_lost),
    ELSC_COUNTER(FederationCounters, crash_inflight_dropped),
};

// Aggregate result of one sharded scenario. Everything except `shards` is a
// pure function of the ScaleConfig (shards is recorded for reporting only).
// It is also the checkpoint's aggregate record (scale_ckpt.h): a segment
// carries what the barriers accumulate (chat totals, crash accounting, fed,
// stats, peaks, digest), and the end of the run stamps every other field
// from the config, the shard count and the fabric router.
struct ScaleRun {
  bool completed = false;
  int nodes = 0;
  int shards = 0;            // Execution detail; excluded from the digest.
  uint64_t windows = 0;      // Lock-step windows until the last node finished.
  uint64_t rooms = 0;
  uint64_t connections = 0;

  // Chat totals across nodes.
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  double elapsed_sec = 0.0;  // Max node completion time (simulated).
  double throughput = 0.0;   // Deliveries per simulated second, aggregate.

  // Federation traffic and recovery counters, summed over every node.
  FederationCounters fed;
  FabricStats fabric;

  // -- Availability accounting (failure model). Zero fault-free, except
  //    deliveries_lost, which a bounded fabric lane can raise on its own.
  uint64_t node_crashes = 0;
  uint64_t node_restarts = 0;
  uint64_t windows_degraded = 0;  // Barriers with >= 1 node down.
  uint64_t deliveries_lost = 0;   // Beacons emitted but never processed.
  // Deliveries per simulated second of total federation runtime (windows x
  // window), downtime and re-run windows included — the goodput-under-faults
  // metric. Equals throughput's denominator-free sibling fault-free.
  double goodput = 0.0;

  // Folded per-node stats (MergeRunStats: counters summed, peaks summed —
  // the total-footprint bound; see the concurrent peaks below for true
  // coexistence maxima).
  RunStats stats;

  // Concurrent peaks sampled at every window barrier across live nodes.
  // peak_task_arena_bytes is host layout, so the digest and signature omit it.
  uint64_t peak_live_tasks = 0;
  uint64_t peak_live_nodes = 0;
  uint64_t peak_task_arena_bytes = 0;
  uint64_t peak_live_sockets = 0;

  // Streaming FNV-1a fold over every node's completion record (RunStatsDigest,
  // chat totals, lifecycle, FederationCounters) plus the scenario trailer.
  // The engine's counters stay out (EngineDigest, beside it in the signature
  // and the JSON). Two runs simulated the same federation iff digests match.
  uint64_t digest = 0;
};

// FNV-1a over a canonical encoding of every behavior-shaping ScaleConfig
// field (scenario shape, chat parameters, federation timing, fault plan,
// recovery protocol — everything the digest is a function of; execution
// knobs like shards / wall budget / ckpt excluded). Binds checkpoint
// segments to their scenario: a segment whose header fingerprint differs is
// rejected, never replayed into the wrong run.
uint64_t ScaleConfigFingerprint(const ScaleConfig& config);

// Runs the sharded scenario on `shards` worker threads (clamped to
// [1, nodes]; <= 0 means 1). Deterministic: the returned ScaleRun (minus
// `shards`) depends only on `config` — including across a checkpoint/restore
// cycle, which resumes from the newest valid segment and produces the exact
// digest of an uninterrupted run. Throws GracefulShutdownRequested at the
// next barrier after SIGTERM/SIGINT (writing a final segment first when
// checkpointing is armed).
ScaleRun RunShardedVolano(const ScaleConfig& config, int shards);

// Canonical digest line for golden tests and logs, one layout with or without
// a fault plan: "scale:<digest hex>|nodes:N|...|events:<EngineDigest>[|failure:...]".
std::string ScaleRunSignature(const ScaleRun& run);

// One sweep cell for bench/scale_sweep: a scenario size x scheduler x shard
// count, plus the wall-clock the bench measured around it (wall_sec and
// tasks_per_wall_sec are host measurements — never part of the
// deterministic JSON body, see RenderScaleJson).
struct ScaleCell {
  ScaleConfig config;
  ScaleRun run;
  double wall_sec = 0.0;
  double tasks_per_wall_sec = 0.0;
  double events_per_wall_sec = 0.0;
};

// Renders the sweep as canonical JSON. The cell bodies contain only
// simulated (deterministic) data — byte-identical at any shard count and
// any ELSC_BENCH_JOBS. `include_timing` additionally appends a "timing"
// block of wall-clock measurements (tasks/sec curves, peak RSS); CI's
// determinism gate renders with include_timing == false (the
// ELSC_TIMING=0 knob) so the files can be byte-compared.
std::string RenderScaleJson(const std::vector<ScaleCell>& cells, uint64_t seed,
                            bool include_timing);

}  // namespace elsc

#endif  // SRC_API_SCALE_H_
