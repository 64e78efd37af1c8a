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
// A segment holds three records that the live federation holds too, so
// taking a checkpoint and restoring one each copy them whole (see
// docs/SCALE.md "Checkpoint & recovery"):
//
//   * the aggregate, ScaleRun itself (scale.h): chat totals, crash
//     accounting, the folded nodes' FederationCounters and merged RunStats,
//     the concurrent peaks, and the streaming FNV digest chain;
//   * the coordinator's FederationLoop: window index, completion tally, and
//     the windows the fabric closed and the inboxes reached EOF at;
//   * per live or down node, its NodeLifecycle: incarnation, clock offset,
//     crash state, banked chat totals, the unfinished-room set, and the dead
//     incarnations' stats.
//
// Beside those, a segment carries the fabric cursor (per-source emission
// counters, since loss/dup fault coins are keyed by (src, dst, seq);
// cumulative FabricStats; the closed flag — lanes are always empty at a
// post-Exchange barrier, so in-flight traffic lives in destination arrival
// logs instead) and per node its FederationCounters (a live node's as of its
// boot), the current incarnation's fabric arrival log, and a verification
// line (counters + RunStatsDigest + EngineDigest + ack/retransmit/reorder
// buffer state).
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
//   elscscale v4 fp=<hex16> seed=<u64> window=<window_index> nodes=<n>
//   run <digest hex16> <sent> <delivered> <crashes> <restarts> <degraded>
//       <counters> <peak tasks> <peak nodes> <peak arena bytes>
//       <peak sockets> <chats_done> <all_completed> <router_close_window>
//       <inbox_close_window>
//   stats <escaped EncodeRunStats of run.stats>
//   fabric <closed> <stats...> <n> <next_seq...>
//   node <index> <state: 1 live, 2 down> <incarnation> <clock_offset>
//       <crashes> <restart_window> <chat_done> <banked_sent>
//       <banked_delivered> <counters> <n> <rooms...>
//   carried <index> <escaped EncodeRunStats>        (optional per node)
//   arr <index> <window> <arrival> <id> <sender> <room> <sent_at> <payload>
//   verify <index> <escaped verification line>      (live nodes)
//   end <fnv hex16>
//
// <counters> is one FederationCounters block, the same eleven tokens in
// kFederationCounterFields order in both records; the fabric record's
// <stats...> are the eleven kFabricCounters tokens. An older segment is
// rejected at the header and the run cold-starts (segments are transient,
// so there is nothing to migrate): v1 ordered the run record differently,
// v2's run digest chains the previous fold-record layout, a mix no verify
// line would catch when every unfolded node is down, and v3's run record
// carries two more loop tokens (the inbox EOF flag and time, which v4
// derives from the windows).

#ifndef SRC_API_SCALE_CKPT_H_
#define SRC_API_SCALE_CKPT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/api/scale.h"
#include "src/api/simulation.h"
#include "src/sim/fabric.h"

namespace elsc {

// The coordinator's loop state at a barrier.
struct FederationLoop {
  uint64_t window_index = 0;
  int chats_done = 0;          // Nodes whose chat has completed.
  bool all_completed = true;   // Every node folded so far finished cleanly.
  // Window indices the fabric closed / the inboxes EOF'd at (0 = not yet):
  // the inboxes close one fabric latency after the fabric does, and
  // checkpoint replay re-applies both at exactly the original barriers.
  uint64_t router_close_window = 0;
  uint64_t inbox_close_window = 0;
};

// What a node carries across its incarnations: the part a crash leaves
// behind and a checkpoint stores, as opposed to the machine the current
// incarnation simulates.
struct NodeLifecycle {
  int index = 0;
  int incarnation = 0;
  // A restarted machine starts at local t = 0; global time = offset + local.
  Cycles clock_offset = 0;
  bool down = false;  // Crashed, awaiting restart at restart_window.
  uint64_t crashes = 0;
  uint64_t restart_window = 0;
  bool chat_done = false;
  // Finished-room quotas banked from dead incarnations — their deliveries
  // happened and stay counted; only unfinished rooms re-run.
  uint64_t banked_sent = 0;
  uint64_t banked_delivered = 0;
  // Global room ids this incarnation simulates (restart re-runs only the
  // unfinished rooms; index 0 pairs with the workload's room 0, and so on).
  std::vector<int> room_ids;
  // Stats of dead incarnations, merged at fold; empty until the first crash.
  std::optional<RunStats> carried_stats;
};

// One logged fabric delivery: enough to re-schedule it during replay at the
// barrier it originally landed on. Logged in sink-call order (duplicated
// deliveries appear twice, like the sink saw them).
struct CkptArrival {
  uint64_t window = 0;   // Barrier (window index) that scheduled it.
  Cycles arrival = 0;    // Global arrival time.
  Message payload;
};

// Per-node checkpoint record. Only live and down nodes are recorded — a
// folded node's contribution already lives in the aggregate digest/stats.
struct CkptNode {
  NodeLifecycle life;
  // Live nodes: the counters at the current incarnation's boot (replay
  // re-adds this incarnation's deltas). Down nodes: the current values
  // (nothing to replay).
  FederationCounters fed;
  std::vector<CkptArrival> arrivals;  // Live nodes: this incarnation's log.
  std::string verify;             // Live nodes: post-replay cross-check line.
};

// Full federation checkpoint at the end of one window barrier.
struct ScaleCheckpoint {
  uint64_t config_fp = 0;  // ScaleConfigFingerprint binding.
  uint64_t seed = 0;
  int num_nodes = 0;
  FederationLoop loop;
  ScaleRun run;  // The aggregate so far: folded nodes + coordinator accounting.
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
