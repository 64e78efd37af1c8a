// Window-granular checkpoint/restore for the sharded federation.
//
// A scale scenario big enough to matter (thousands of rooms, ~10^6
// connections) runs long enough that a SIGKILL / OOM / host reboot
// mid-federation is a real operational event. The run journal
// (src/harness/supervisor.h) resumes at matrix-*cell* granularity — it
// re-runs a killed cell from scratch. This layer checkpoints *inside* a
// cell: at configurable window barriers the coordinator serializes the
// federation's coordinator-visible state into a checksummed, fsync'd,
// atomically-renamed segment file, and a restarted process resumes from the
// newest valid segment, producing a digest and bench JSON byte-identical to
// an uninterrupted run.
//
// What a segment holds (see docs/SCALE.md "Checkpoint & recovery"):
//
//   * the aggregate ScaleRun-so-far: the folded nodes' FederationCounters,
//     the merged RunStats, the concurrent peaks, and the streaming FNV
//     digest chain;
//   * the fabric cursor: per-source emission counters (loss/dup fault coins
//     are keyed by (src, dst, seq)), cumulative FabricStats, closed flag —
//     lanes are always empty at a post-Exchange barrier, so in-flight
//     traffic lives in destination arrival logs instead;
//   * per live/down node: lifecycle (incarnation, clock offset, crash bank),
//     the unfinished-room set, its FederationCounters (a live node's as of
//     its boot), the current incarnation's fabric arrival log, and a
//     verification line (counters + RunStatsDigest + EngineDigest +
//     ack/retransmit/reorder buffer state).
//
// Restore rebuilds live nodes by *deterministic replay*: the node is booted
// exactly as the original incarnation was (same derived seed), stepped
// window-by-window to the checkpoint barrier with its logged arrivals
// re-scheduled at the original barriers, then cross-checked against the
// stored verification line. Engine event queues hold closures and cannot be
// serialized; replay of a deterministic simulation reconstructs them
// exactly, at a cost bounded by one incarnation's windows. A segment that
// fails decoding, checksum, config binding, or post-replay verification is
// rejected with a one-line stderr repro and the runner falls back to the
// next-older segment, then to a cold start — never UB, never a crash.
//
// File format (text, one record per line, journal-style escaping for
// embedded payloads, FNV-1a-64 trailer over all preceding bytes):
//
//   elscscale v3 fp=<hex16> seed=<u64> window=<u64> nodes=<n>
//   run <digest hex16> <sent> <delivered> <crashes> <restarts> <degraded>
//       <counters> <peaks...> <loop state...>
//   stats <escaped EncodeRunStats>
//   fabric <closed> <stats...> <n> <next_seq...>
//   node <index> <state> <lifecycle...> <banked sent/delivered> <counters>
//       <n> <rooms...>
//   carried <index> <escaped EncodeRunStats>        (optional per node)
//   arr <index> <window> <arrival> <id> <sender> <room> <sent_at> <payload>
//   verify <index> <escaped verification line>
//   end <fnv hex16>
//
// <counters> is one FederationCounters block, the same eleven tokens in
// kFederationCounterFields order in both records; the fabric record's
// <stats...> are the eleven kFabricCounters tokens. An older segment is
// rejected at the header and the run cold-starts (segments are transient,
// so there is nothing to migrate): v1 ordered the run record differently,
// and v2's run digest chains the previous fold-record layout, a mix no
// verify line would catch when every unfolded node is down.

#ifndef SRC_API_SCALE_CKPT_H_
#define SRC_API_SCALE_CKPT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/token_codec.h"
#include "src/sim/fabric.h"

namespace elsc {

// Checkpointing knobs, resolved from the environment when ScaleConfig's
// copy has an empty path. Never part of the digest/signature/JSON.
struct ScaleCheckpointOptions {
  std::string path;   // Segment path prefix; empty = checkpointing off.
  uint64_t every = 16;  // Segment cadence in windows (0 = forced-only).
  int keep = 2;         // Newest segments retained per scenario.
  // Test hook: force a segment at this window and return a partial
  // (completed == false) run instead of continuing — a process kill without
  // killing the test process. 0 = off.
  uint64_t stop_after_window = 0;

  bool armed() const { return !path.empty(); }
  // ELSC_SCALE_CKPT / ELSC_SCALE_CKPT_EVERY / ELSC_SCALE_CKPT_KEEP.
  static ScaleCheckpointOptions FromEnv();
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

// One logged fabric delivery: enough to re-schedule it during replay at the
// barrier it originally landed on. Logged in sink-call order (duplicated
// deliveries appear twice, like the sink saw them).
struct CkptArrival {
  uint64_t window = 0;   // Barrier (window index) that scheduled it.
  Cycles arrival = 0;    // Global arrival time.
  Message payload;
};

// Per-node checkpoint record. Only live (state 1) and down (state 2) nodes
// are recorded — a folded node's contribution already lives in the
// aggregate digest/stats.
struct CkptNode {
  int index = 0;
  int state = 1;  // 1 = live (machine running), 2 = down (awaiting restart).
  int incarnation = 0;
  Cycles clock_offset = 0;
  uint64_t crashes = 0;
  uint64_t restart_window = 0;
  bool chat_done = false;
  uint64_t banked_sent = 0;
  uint64_t banked_delivered = 0;
  // Live nodes: the counters at the current incarnation's boot (replay
  // re-adds this incarnation's deltas). Down nodes: the current values
  // (nothing to replay).
  FederationCounters fed;
  std::vector<int> room_ids;      // This incarnation's (unfinished) rooms.
  std::string carried_stats;      // EncodeRunStats of dead incarnations; "" = none.
  std::vector<CkptArrival> arrivals;  // Live nodes: this incarnation's log.
  std::string verify;             // Live nodes: post-replay cross-check line.
};

// Full federation checkpoint at the end of one window barrier.
struct ScaleCheckpoint {
  uint64_t config_fp = 0;  // ScaleConfigFingerprint binding.
  uint64_t seed = 0;
  uint64_t window_index = 0;
  int num_nodes = 0;
  // Coordinator loop state.
  int chats_done = 0;
  bool all_completed = true;
  bool inboxes_closed = false;
  Cycles inbox_close_at = 0;
  uint64_t router_close_window = 0;  // Window Close() ran at; 0 = still open.
  uint64_t inbox_close_window = 0;   // Window inboxes EOF'd at; 0 = open.
  // Aggregate run-so-far (folded nodes + coordinator accounting).
  uint64_t digest = 0;  // The streaming FNV accumulator.
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t node_crashes = 0;
  uint64_t node_restarts = 0;
  uint64_t windows_degraded = 0;
  FederationCounters fed;  // Folded nodes' counters.
  uint64_t peak_live_tasks = 0;
  uint64_t peak_live_nodes = 0;
  uint64_t peak_task_arena_bytes = 0;
  uint64_t peak_live_sockets = 0;
  std::string agg_stats;  // EncodeRunStats of the folded RunStats.
  FabricRouterState fabric;
  std::vector<CkptNode> nodes;  // Ascending index; missing = folded.
};

// Exact round-trip codec. Decode validates the header magic/version, every
// field, and the FNV trailer; false (with a one-line *error) on anything
// torn, truncated, bit-flipped, or version-mismatched — never UB.
std::string EncodeScaleCheckpoint(const ScaleCheckpoint& ckpt);
bool DecodeScaleCheckpoint(const std::string& contents, ScaleCheckpoint* ckpt,
                           std::string* error);

// Segment naming: "<prefix>.<fp hex16>.w<window>.ckpt". The fingerprint in
// the name keeps concurrently-running cells of one bench sweep (distinct
// scenarios, one ELSC_SCALE_CKPT prefix) from clobbering each other.
std::string CheckpointSegmentPath(const std::string& prefix, uint64_t config_fp,
                                  uint64_t window);

struct CheckpointSegmentInfo {
  uint64_t window = 0;
  std::string path;
};

// Existing segments for (prefix, fingerprint), newest window first.
std::vector<CheckpointSegmentInfo> ListCheckpointSegments(
    const std::string& prefix, uint64_t config_fp);

// Encodes + atomically writes one segment, then prunes to `keep` newest.
// False (with *error) on I/O failure — the run continues uncheckpointed.
bool WriteCheckpointSegment(const ScaleCheckpointOptions& options,
                            const ScaleCheckpoint& ckpt, std::string* error);

// Deletes every segment for (prefix, fingerprint) — called on clean
// completion so a finished scenario can never resurrect from stale state.
void RemoveCheckpointSegments(const std::string& prefix, uint64_t config_fp);

}  // namespace elsc

#endif  // SRC_API_SCALE_CKPT_H_
