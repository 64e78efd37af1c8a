// Deterministic inter-node message fabric for the sharded simulation mode.
//
// A sharded scenario (src/api/scale.h) partitions the simulated machine into
// nodes, each owning an independent Engine+Machine, advanced in conservative
// time-windowed lock-step. Cross-node traffic cannot be delivered while the
// nodes' engines run concurrently — instead each node appends its outbound
// messages to a private *lane* during the window, and the coordinator drains
// every lane at the window barrier, stamping each message with an arrival
// time one fabric latency after it was sent.
//
// Determinism contract (the whole point of this class):
//
//   * Lanes are single-writer: node i's tasks are the only emitters into
//     lane i, and they run on exactly one shard thread per window, so
//     emission order within a lane is the node's own deterministic event
//     order — independent of how nodes are assigned to shard threads.
//   * Exchange() drains lanes in node-index order, and each lane in
//     emission order, on the single coordinator thread. The resulting
//     delivery schedule is therefore a pure function of the scenario, never
//     of the shard count or of thread timing.
//   * Conservative window rule: latency >= window guarantees every message
//     emitted during window k arrives strictly after barrier k — the
//     receiving node's window k state can never depend on messages it has
//     not yet been handed. Exchange() verifies this per message.
//
// Bit-identical results at any shard count follow: node-local simulation is
// deterministic given its inputs, and the only cross-node inputs are these
// deterministically ordered, deterministically timed deliveries.

#ifndef SRC_SIM_FABRIC_H_
#define SRC_SIM_FABRIC_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/time_units.h"
#include "src/base/token_codec.h"
#include "src/faults/fault_plan.h"
#include "src/net/socket.h"

namespace elsc {

// One message crossing the fabric.
struct FabricMessage {
  int src_node = 0;
  int dst_node = 0;
  Cycles sent_at = 0;   // Simulated emission time on the source node.
  uint64_t seq = 0;     // Per-source emission counter (assigned by Emit).
  Message payload;
};

struct FabricStats {
  uint64_t emitted = 0;         // Messages handed to Emit() (counted at drain).
  uint64_t routed = 0;          // Messages delivered to the sink.
  uint64_t refused = 0;         // Sink declined (destination gone).
  uint64_t dropped_closed = 0;  // Drained after Close(): never delivered.
  uint64_t exchanges = 0;       // Barrier drains performed.
  uint64_t max_window_backlog = 0;  // Deepest single-window total drain.
  // Failure-model causes: zero unless a FederationFaultPlan is armed or a
  // lane capacity is set. The federation digest, signature and JSON carry
  // them either way, so a fault-free lane overflow shows too.
  uint64_t dropped_loss = 0;          // Random per-message fabric loss.
  uint64_t dropped_partition = 0;     // Drained while the link was partitioned.
  uint64_t dropped_crashed = 0;       // Destination node was down (sink kDown).
  uint64_t dropped_lane_overflow = 0;  // Emitted into a full bounded lane.
  uint64_t duplicated = 0;            // Extra deliveries from duplication.
};

// Every FabricStats counter, in codec order: the checkpoint's fabric record
// and the federation digest's trailer walk it (src/base/token_codec.h).
inline constexpr Counter<FabricStats> kFabricCounters[] = {
    ELSC_COUNTER(FabricStats, emitted), ELSC_COUNTER(FabricStats, routed),
    ELSC_COUNTER(FabricStats, refused), ELSC_COUNTER(FabricStats, dropped_closed),
    ELSC_COUNTER(FabricStats, exchanges), ELSC_COUNTER(FabricStats, max_window_backlog),
    ELSC_COUNTER(FabricStats, dropped_loss), ELSC_COUNTER(FabricStats, dropped_partition),
    ELSC_COUNTER(FabricStats, dropped_crashed), ELSC_COUNTER(FabricStats, dropped_lane_overflow),
    ELSC_COUNTER(FabricStats, duplicated),
};

// Checkpointable fabric state. Lanes are deliberately absent: checkpoints
// are taken at post-Exchange barriers, where every lane is empty — in-flight
// traffic has already been scheduled on its destination node. What must
// survive a restart are the per-source emission counters (loss/dup fault
// coins are keyed by (src, dst, seq), so a reset counter would re-roll
// different coins), the cumulative stats, and the closed flag.
struct FabricRouterState {
  bool closed = false;
  std::vector<uint64_t> next_seq;
  FabricStats stats;
};

class FabricRouter {
 public:
  enum class Delivery {
    kDelivered,  // Sink scheduled the arrival.
    kRefused,    // Destination no longer accepts traffic.
    kDown,       // Destination node is crashed: counted dropped_crashed.
  };
  // Invoked once per message, on the coordinator thread, in deterministic
  // order; schedules the payload's arrival at `arrival` on the destination.
  using Sink = std::function<Delivery(const FabricMessage& msg, Cycles arrival)>;

  // `latency` == 0 means one window. Aborts unless latency >= window (the
  // conservative rule) and nodes >= 1.
  FabricRouter(int nodes, Cycles window, Cycles latency);

  // Queues a message from src_node, sent at simulated time `sent_at`.
  // Called by node-local tasks *during* a window: safe concurrently across
  // different source nodes (single writer per lane), never for the same one.
  void Emit(int src_node, int dst_node, Cycles sent_at, const Message& payload);

  // Drains every lane at barrier time `barrier_time` (nodes' clocks all sit
  // exactly there): node-index order, emission order within a node, arrival
  // = sent_at + latency (checked > barrier_time). After Close(), drained
  // messages are counted dropped_closed and the sink is not invoked. Runs on
  // the coordinator thread only.
  void Exchange(Cycles barrier_time, const Sink& sink);

  // Stops delivery: subsequent Exchange() calls drop everything drained.
  // Used when every node's chat is complete — late beacons have nobody
  // left to inform.
  void Close() { closed_ = true; }
  bool closed() const { return closed_; }

  // Arms the federation failure model: Exchange() consults `plan` on the
  // coordinator thread for per-link partitions and per-message loss and
  // duplication, all keyed by (src, dst, seq) — injection is a pure function
  // of the plan, never of shard assignment. Pass nullptr to disarm. The plan
  // must outlive the router.
  void ArmFaults(const FederationFaultPlan* plan) { plan_ = plan; }

  // Bounds every per-source lane to `capacity` queued messages (0 =
  // unbounded, the default). An Emit() into a full lane is a counted drop
  // (dropped_lane_overflow), not unbounded growth — a partitioned or crashed
  // destination cannot OOM the fabric.
  void SetLaneCapacity(size_t capacity) { lane_capacity_ = capacity; }

  // Snapshot / restore for window-barrier checkpoints. Both abort unless
  // every lane is empty (i.e. called right after an Exchange); ImportState
  // additionally requires a matching node count.
  FabricRouterState ExportState() const;
  void ImportState(const FabricRouterState& state);

  int nodes() const { return static_cast<int>(lanes_.size()); }
  Cycles window() const { return window_; }
  Cycles latency() const { return latency_; }
  const FabricStats& stats() const { return stats_; }

 private:
  Cycles window_;
  Cycles latency_;
  bool closed_ = false;
  size_t lane_capacity_ = 0;  // 0 = unbounded.
  const FederationFaultPlan* plan_ = nullptr;
  // lanes_[i]: messages emitted by node i since the last Exchange.
  std::vector<std::vector<FabricMessage>> lanes_;
  std::vector<uint64_t> next_seq_;  // Per-source emission counters.
  // Per-lane overflow counts (single-writer, like the lanes themselves);
  // folded into stats_.dropped_lane_overflow at each Exchange.
  std::vector<uint64_t> lane_overflows_;
  FabricStats stats_;
};

}  // namespace elsc

#endif  // SRC_SIM_FABRIC_H_
