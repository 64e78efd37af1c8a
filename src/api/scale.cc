#include "src/api/scale.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "src/base/assert.h"
#include "src/base/atomic_file.h"
#include "src/base/fnv.h"
#include "src/base/string_util.h"
#include "src/base/watchdog.h"
#include "src/faults/kill_point.h"
#include "src/harness/run_matrix.h"
#include "src/harness/shutdown.h"
#include "src/harness/thread_pool.h"
#include "src/net/socket.h"
#include "src/sched/factory.h"
#include "src/smp/machine.h"
#include "src/workloads/volano.h"

namespace elsc {

namespace {

// Key mixed into DeriveSeed so node seeds are a stable function of
// (scenario seed, node index) — never of the node-to-shard assignment.
constexpr uint64_t kScaleSeedKey = 0x5ca1ab1e5ca1ab1eULL;
// Restart incarnations derive fresh seeds from this key + incarnation, so a
// rebuilt node replays a different (but deterministic) schedule.
constexpr uint64_t kScaleRestartKey = 0xfede7a7e00000000ULL;

// Sentinel room id marking a cumulative-ack message on the fabric (real
// rooms are >= 0).
constexpr int kAckRoom = -2;

// Beacon ids encode (incarnation << 48) | seq: a restarted transmitter's
// ids are strictly larger than anything its dead incarnation sent, so the
// receiver's gap-jump handles the incarnation switch like any other loss.
constexpr int kIncarnationShift = 48;

struct ScaleNode;

// Federation relay, transmit side: every `gossip_period` the relay wakes
// and emits one progress beacon per owned room to the node's ring
// successor. The beacons are the scenario's cross-node traffic; the relay
// itself is scheduler-visible load (it sleeps, wakes, and burns CPU like
// any other server thread). Exits once the local chat is complete — there
// is no more progress to report.
//
// With the failure model armed, beacons additionally carry link-sequence
// ids and the relay keeps a bounded buffer of unacked beacons, re-emitting
// them on timeout under the retransmit backoff policy (a TCP-lite tail on
// top of the fire-and-forget gossip). Fault-free configs never enter any of
// those branches, byte for byte.
class FederationTx : public TaskBehavior {
 public:
  explicit FederationTx(ScaleNode* node);
  Segment NextSegment(Machine& machine, Task& task) override;

  // Canonical encoding of the transmit-side protocol state (beacon clock,
  // id counter, unacked retransmission buffer) for the checkpoint
  // verification line: replay must reconstruct this exactly.
  std::string EncodeState() const {
    std::string s =
        StrFormat("tx:%llu,%llu", static_cast<unsigned long long>(next_beacon_at_),
                  static_cast<unsigned long long>(next_beacon_id_));
    for (const Unacked& u : unacked_) {
      s += StrFormat(";%llu,%d,%llu", static_cast<unsigned long long>(u.id),
                     u.attempts, static_cast<unsigned long long>(u.next_retx_at));
    }
    return s;
  }

 private:
  struct Unacked {
    uint64_t id = 0;
    Message msg;
    int attempts = 1;         // Emissions so far (1 = the original send).
    Cycles next_retx_at = 0;  // Global time of the next retransmission.
  };

  ScaleNode* node_;
  std::deque<Unacked> unacked_;
  Cycles next_beacon_at_ = 0;
  uint64_t next_beacon_id_ = 0;
};

// Federation relay, receive side: drains the node's fabric inbox, paying a
// processing cost per beacon, and exits on EOF (the coordinator closes
// every inbox once the whole federation's chat is complete and all
// in-flight deliveries have landed).
//
// With the failure model armed it runs the receive half of the recovery
// protocol: in-order beacons are processed and cumulatively acked, small
// gaps are buffered for reordering (duplicated fabric deliveries arrive at
// the same time but a retransmit can overtake a slower original), wide gaps
// — including a restarted predecessor's incarnation jump — are jumped past,
// and duplicates are discarded by id.
class FederationRx : public TaskBehavior {
 public:
  explicit FederationRx(ScaleNode* node) : node_(node) {}
  Segment NextSegment(Machine& machine, Task& task) override;

  // Receive-side analog of FederationTx::EncodeState (cumulative cursor,
  // last ack sent, buffered out-of-order ids).
  std::string EncodeState() const {
    std::string s = StrFormat("rx:%llu,%llu", static_cast<unsigned long long>(cum_),
                              static_cast<unsigned long long>(last_acked_));
    for (const auto& entry : reorder_) {
      s += StrFormat(";%llu", static_cast<unsigned long long>(entry.first));
    }
    return s;
  }

 private:
  Segment Process(Machine& machine, const Message& beacon);
  void Deliver(const Message& beacon);

  ScaleNode* node_;
  uint64_t cum_ = 0;         // Highest contiguously-processed beacon id.
  uint64_t last_acked_ = 0;  // cum_ value carried by the last ack sent.
  std::map<uint64_t, Message> reorder_;  // Out-of-order beacons, bounded.
};

// One node of the federation: an independent Machine simulating its rooms,
// plus the fabric endpoints. Owned by the coordinator; advanced by exactly
// one shard thread per window; destroyed (streaming fold) at the barrier
// where its workload completes. Under the failure model a node can
// additionally be torn down mid-scenario (crash) and rebuilt with a derived
// seed (restart) — the counters below deliberately live here, not in the
// machine, so they survive incarnations.
struct ScaleNode {
  int index = 0;
  int first_room = 0;
  int dst_node = 0;  // Ring successor receiving this node's beacons.
  int src_node = 0;  // Ring predecessor; acks flow back to it.
  const ScaleConfig* config = nullptr;
  FabricRouter* router = nullptr;  // Null when gossip is disabled.
  bool armed = false;              // config->faults.Enabled().

  std::unique_ptr<Machine> machine;
  std::unique_ptr<VolanoWorkload> volano;
  std::unique_ptr<SimSocket> inbox;
  std::unique_ptr<FederationTx> tx;
  std::unique_ptr<FederationRx> rx;

  // Global room ids this incarnation simulates (restart re-runs only the
  // unfinished rooms; index 0 pairs with volano room 0, and so on).
  std::vector<int> room_ids;
  // A restarted machine starts at local t = 0; global time = offset + local.
  Cycles clock_offset = 0;
  int incarnation = 0;

  // Federation counters (single-writer: only this node's tasks / delivery
  // events touch them, and those all run on this node's shard thread).
  uint64_t beacons_sent = 0;
  uint64_t beacons_received = 0;
  uint64_t inbox_overflows = 0;
  uint64_t late_writes = 0;
  uint64_t last_remote_progress = 0;  // Payload of the newest beacon seen.
  // Recovery-protocol counters (persist across restarts).
  uint64_t tx_acked = 0;  // Cumulative ack from the ring successor.
  uint64_t retransmits = 0;
  uint64_t retx_abandoned = 0;
  uint64_t dup_discards = 0;
  uint64_t acks_sent = 0;
  uint64_t acks_received = 0;

  // Crash lifecycle (coordinator-side).
  bool down = false;
  uint64_t restart_window = 0;
  uint64_t crashes = 0;
  // Finished-room quotas banked from dead incarnations — their deliveries
  // happened and stay counted; only unfinished rooms re-run.
  uint64_t banked_sent = 0;
  uint64_t banked_delivered = 0;
  uint64_t chat_messages_lost = 0;      // Partial-room work thrown away.
  uint64_t crash_inflight_dropped = 0;  // Fabric deliveries killed mid-air.
  // Arrivals scheduled on this incarnation's engine that have not landed
  // yet (incremented by the coordinator sink at barriers, decremented by
  // the delivery event on the shard thread — phases never overlap).
  uint64_t pending_deliveries = 0;
  RunStats carried_stats;  // Stats of dead incarnations, merged at fold.
  bool has_carried_stats = false;

  bool chat_done = false;
  uint64_t completed_window = 0;

  // --- Checkpoint support (scale_ckpt.h) ---
  // Fabric deliveries the coordinator sink scheduled onto this incarnation's
  // engine, in sink-call order (duplicates appear twice). Restore replays
  // them verbatim at their original barriers. Only populated when
  // checkpointing is armed; cleared at every boot.
  bool log_arrivals = false;
  std::vector<CkptArrival> arrival_log;
  // Counter values at this incarnation's boot. Task- and event-mutated
  // counters cannot be serialized live (their current values are the sum of
  // boot value + this incarnation's deltas, and the deltas are reproduced by
  // replay) — so checkpoints store the boot snapshot and replay re-adds the
  // deltas. tx_acked needs no snapshot: it is always 0 at boot.
  struct FedSnapshot {
    uint64_t beacons_sent = 0;
    uint64_t beacons_received = 0;
    uint64_t inbox_overflows = 0;
    uint64_t late_writes = 0;
    uint64_t last_remote_progress = 0;
    uint64_t retransmits = 0;
    uint64_t retx_abandoned = 0;
    uint64_t dup_discards = 0;
    uint64_t acks_sent = 0;
    uint64_t acks_received = 0;
  };
  FedSnapshot boot_counters;

  Cycles GlobalNow() const { return clock_offset + machine->Now(); }
};

// Jitter key for one unacked beacon's retransmission schedule.
uint64_t RetxKey(const ScaleNode& node, uint64_t id) {
  return (static_cast<uint64_t>(node.index) << 32) ^ id;
}

FederationTx::FederationTx(ScaleNode* node)
    : node_(node),
      next_beacon_id_(static_cast<uint64_t>(node->incarnation)
                      << kIncarnationShift) {}

Segment FederationTx::NextSegment(Machine& machine, Task& task) {
  (void)task;
  const ScaleConfig& cfg = *node_->config;
  const bool armed = node_->armed;
  if (armed) {
    // Cumulative ack from the ring successor: everything at or below it
    // arrived — purge it from the retransmission buffer.
    while (!unacked_.empty() && unacked_.front().id <= node_->tx_acked) {
      unacked_.pop_front();
    }
  }
  if (node_->volano->ChatComplete() &&
      (!armed || !cfg.retransmit || unacked_.empty() ||
       node_->router->closed())) {
    // Nothing more to report — though an armed transmitter lingers while
    // unacked beacons might still need retransmission, until the router
    // closes (the coordinator closes it at a barrier; no shard is running,
    // so this read is race-free).
    return Segment::Exit(cfg.chat.syscall_cycles);
  }
  const Cycles now = machine.Now();
  if (next_beacon_at_ == 0) {
    next_beacon_at_ = cfg.gossip_period;
  }
  if (now < next_beacon_at_) {
    return Segment::Sleep(cfg.chat.syscall_cycles, next_beacon_at_ - now);
  }
  const Cycles global_now = node_->clock_offset + now;
  Cycles emissions = 0;
  if (armed && cfg.retransmit) {
    // Timeout-driven retransmission: anything unacked past its deadline is
    // re-emitted under the backoff policy; exhausted retries abandon.
    for (size_t i = 0; i < unacked_.size();) {
      Unacked& u = unacked_[i];
      if (global_now < u.next_retx_at) {
        ++i;
        continue;
      }
      if (cfg.retransmit_backoff.ShouldAbandon(u.attempts)) {
        ++node_->retx_abandoned;
        unacked_.erase(unacked_.begin() + static_cast<long>(i));
        continue;
      }
      u.msg.sent_at = global_now;
      node_->router->Emit(node_->index, node_->dst_node, global_now, u.msg);
      ++node_->retransmits;
      ++u.attempts;
      u.next_retx_at =
          global_now + cfg.retransmit_backoff.Delay(RetxKey(*node_, u.id),
                                                    u.attempts);
      ++emissions;
      ++i;
    }
  }
  if (!node_->volano->ChatComplete()) {
    const int owned_rooms = node_->volano->config().rooms;
    for (int r = 0; r < owned_rooms; ++r) {
      Message beacon;
      beacon.id = ++next_beacon_id_;
      beacon.sender = node_->index;
      beacon.room = node_->room_ids[static_cast<size_t>(r)];
      beacon.sent_at = global_now;
      beacon.payload = node_->volano->messages_delivered();
      node_->router->Emit(node_->index, node_->dst_node, global_now, beacon);
      ++node_->beacons_sent;
      ++emissions;
      if (armed && cfg.retransmit) {
        Unacked u;
        u.id = beacon.id;
        u.msg = beacon;
        u.next_retx_at =
            global_now + cfg.retransmit_backoff.Delay(RetxKey(*node_, u.id), 1);
        unacked_.push_back(u);
        while (unacked_.size() > cfg.retransmit_buffer) {
          // Bounded buffer: the oldest unacked beacon is given up on.
          unacked_.pop_front();
          ++node_->retx_abandoned;
        }
      }
    }
  }
  next_beacon_at_ = now + cfg.gossip_period;
  return Segment::RunAgain(cfg.beacon_cycles *
                           (emissions == 0 ? 1 : emissions));
}

Segment FederationRx::NextSegment(Machine& machine, Task& task) {
  (void)task;
  const ScaleConfig& cfg = *node_->config;
  SimSocket* inbox = node_->inbox.get();
  Message beacon;
  switch (inbox->TryReadMsg(machine, &beacon)) {
    case SockStatus::kOk:
      if (!node_->armed) {
        ++node_->beacons_received;
        node_->last_remote_progress = beacon.payload;
        return Segment::RunAgain(cfg.gossip_process_cycles);
      }
      return Process(machine, beacon);
    case SockStatus::kWouldBlock:
      if (node_->armed && cum_ > last_acked_) {
        // Inbox drained: return one cumulative ack covering everything
        // processed since the last ack (delayed-ack batching for free).
        Message ack;
        ack.id = cum_;
        ack.sender = node_->index;
        ack.room = kAckRoom;
        const Cycles global_now = node_->clock_offset + machine.Now();
        ack.sent_at = global_now;
        ack.payload = cum_;
        node_->router->Emit(node_->index, node_->src_node, global_now, ack);
        last_acked_ = cum_;
        ++node_->acks_sent;
        return Segment::RunAgain(cfg.beacon_cycles);
      }
      return Segment::Block(cfg.chat.syscall_cycles, &inbox->read_wait(),
                            [inbox] { return !inbox->ReadReady(); });
    default:  // kEof / kClosed / kReset: the federation shut down.
      return Segment::Exit(cfg.chat.syscall_cycles);
  }
}

void FederationRx::Deliver(const Message& beacon) {
  ++node_->beacons_received;
  node_->last_remote_progress = beacon.payload;
}

Segment FederationRx::Process(Machine& machine, const Message& beacon) {
  (void)machine;
  const ScaleConfig& cfg = *node_->config;
  if (beacon.room == kAckRoom) {
    // The successor's cumulative ack for our own transmissions.
    if (beacon.payload > node_->tx_acked) {
      node_->tx_acked = beacon.payload;
    }
    ++node_->acks_received;
    return Segment::RunAgain(cfg.chat.syscall_cycles);
  }
  const uint64_t id = beacon.id;
  if (id <= cum_ || reorder_.count(id) != 0) {
    ++node_->dup_discards;
    return Segment::RunAgain(cfg.chat.syscall_cycles);
  }
  uint64_t processed = 0;
  if (id == cum_ + 1) {
    Deliver(beacon);
    cum_ = id;
    ++processed;
  } else if (id > cum_ + cfg.recovery_gap_span ||
             reorder_.size() >= cfg.recovery_gap_span) {
    // Gap too wide (a restarted predecessor's incarnation jump is 2^48) or
    // the reorder buffer is full: jump past it. Buffered beacons below the
    // jump target still get processed in id order; the rest of the gap is
    // this run's deliveries_lost.
    for (auto it = reorder_.begin(); it != reorder_.end() && it->first < id;) {
      Deliver(it->second);
      ++processed;
      it = reorder_.erase(it);
    }
    Deliver(beacon);
    cum_ = id;
    ++processed;
  } else {
    reorder_.emplace(id, beacon);
    return Segment::RunAgain(cfg.chat.syscall_cycles);
  }
  // Drain whatever the new cum_ made contiguous.
  while (!reorder_.empty() && reorder_.begin()->first == cum_ + 1) {
    Deliver(reorder_.begin()->second);
    ++cum_;
    ++processed;
    reorder_.erase(reorder_.begin());
  }
  return Segment::RunAgain(cfg.gossip_process_cycles *
                           static_cast<Cycles>(processed));
}

// Per-node RunStats snapshot (the sharded analog of the facade's
// CollectStats), memory block included.
RunStats NodeRunStats(const ScaleNode& node) {
  RunStats stats;
  const Machine& machine = *node.machine;
  stats.sched = machine.scheduler().stats();
  stats.machine = machine.stats();
  stats.events = machine.engine().queue_stats();
  stats.memory.task_arena_bytes = machine.task_arena_bytes();
  stats.memory.task_arena_chunks = machine.task_arena_stats().chunks;
  stats.memory.peak_live_sockets =
      node.volano->SocketCount() + (node.inbox ? 1 : 0);
  stats.elapsed_sec = CyclesToSec(machine.Now());
  return stats;
}

// Schedules one fabric delivery onto `dst`'s engine. Shared by the live
// coordinator sink and checkpoint replay so both paths produce identical
// engine insertion order and identical delivery-event behavior. Never logs
// (the sink logs before calling; replayed arrivals are already logged).
void ScheduleArrivalOn(ScaleNode* dst, Cycles arrival, const Message& payload) {
  ++dst->pending_deliveries;
  // A restarted machine's clock is offset: schedule at local time.
  dst->machine->engine().ScheduleAt(
      arrival - dst->clock_offset, [dst, payload] {
        --dst->pending_deliveries;
        switch (dst->inbox->TryWriteMsg(*dst->machine, payload)) {
          case SockStatus::kOk:
            break;
          case SockStatus::kWouldBlock:
            // Bounded inbox full: the beacon is dropped like a datagram
            // against a full receive buffer.
            ++dst->inbox_overflows;
            break;
          default:  // kClosed / kReset: delivery raced the shutdown.
            ++dst->late_writes;
            break;
        }
      });
}

// Checkpoint verification line for a live node: every node-local value the
// next windows' behavior depends on. Computed at checkpoint time and again
// after restore replay — any divergence rejects the segment.
std::string VerifyLine(const ScaleNode& node) {
  std::string line = StrFormat(
      "fed:%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu|ack:%llu|pend:%llu|",
      static_cast<unsigned long long>(node.beacons_sent),
      static_cast<unsigned long long>(node.beacons_received),
      static_cast<unsigned long long>(node.inbox_overflows),
      static_cast<unsigned long long>(node.late_writes),
      static_cast<unsigned long long>(node.last_remote_progress),
      static_cast<unsigned long long>(node.retransmits),
      static_cast<unsigned long long>(node.retx_abandoned),
      static_cast<unsigned long long>(node.dup_discards),
      static_cast<unsigned long long>(node.acks_sent),
      static_cast<unsigned long long>(node.acks_received),
      static_cast<unsigned long long>(node.tx_acked),
      static_cast<unsigned long long>(node.pending_deliveries));
  line += RunStatsDigest(NodeRunStats(node));
  line += StrFormat("|chat:%llu,%llu",
                    static_cast<unsigned long long>(node.volano->messages_sent()),
                    static_cast<unsigned long long>(node.volano->messages_delivered()));
  if (node.tx != nullptr) {
    line += "|" + node.tx->EncodeState();
  }
  if (node.rx != nullptr) {
    line += "|" + node.rx->EncodeState();
  }
  return line;
}

// Builds (or rebuilds, incarnation > 0) a node's simulated machine, chat
// workload over node->room_ids, inbox, and federation relays, and starts it.
void BootNode(ScaleNode* node, const ScaleConfig& config) {
  const uint64_t seed_key =
      node->incarnation == 0
          ? kScaleSeedKey
          : kScaleRestartKey + static_cast<uint64_t>(node->incarnation);
  MachineConfig mc = MakeMachineConfig(
      config.kernel, config.scheduler,
      DeriveSeed(config.seed, seed_key, static_cast<uint64_t>(node->index)));
  node->machine = std::make_unique<Machine>(mc);

  VolanoConfig chat = config.chat;
  chat.rooms = static_cast<int>(node->room_ids.size());
  node->volano = std::make_unique<VolanoWorkload>(*node->machine, chat);
  node->volano->Setup();

  if (node->router != nullptr) {
    node->inbox = std::make_unique<SimSocket>(
        node->incarnation == 0
            ? StrFormat("node%d.fabric.in", node->index)
            : StrFormat("node%d.fabric.in#%d", node->index, node->incarnation),
        config.fabric_inbox_capacity);
    node->tx = std::make_unique<FederationTx>(node);
    node->rx = std::make_unique<FederationRx>(node);
    // The relays are server-process threads: share the server JVM's mm.
    TaskParams params;
    params.mm = node->volano->server_mm();
    params.name = StrFormat("node%d.fedtx", node->index);
    params.behavior = node->tx.get();
    node->machine->CreateTask(params);
    params.name = StrFormat("node%d.fedrx", node->index);
    params.behavior = node->rx.get();
    node->machine->CreateTask(params);
  }
  // Checkpoint bookkeeping: a fresh incarnation starts a fresh arrival log,
  // and the counter values right now are what replay will restart from.
  node->arrival_log.clear();
  node->boot_counters.beacons_sent = node->beacons_sent;
  node->boot_counters.beacons_received = node->beacons_received;
  node->boot_counters.inbox_overflows = node->inbox_overflows;
  node->boot_counters.late_writes = node->late_writes;
  node->boot_counters.last_remote_progress = node->last_remote_progress;
  node->boot_counters.retransmits = node->retransmits;
  node->boot_counters.retx_abandoned = node->retx_abandoned;
  node->boot_counters.dup_discards = node->dup_discards;
  node->boot_counters.acks_sent = node->acks_sent;
  node->boot_counters.acks_received = node->acks_received;
  node->machine->Start();
}

// Resolves the per-window wall-clock budget: explicit config value, else
// the supervisor's ELSC_CELL_TIMEOUT_MS, else off.
double ResolveWindowBudget(const ScaleConfig& config) {
  double budget = config.window_wall_budget_sec;
  if (budget == 0.0) {
    const char* env = std::getenv("ELSC_CELL_TIMEOUT_MS");
    budget = env != nullptr ? std::atof(env) / 1000.0 : 0.0;
  }
  return budget > 0.0 ? budget : 0.0;
}

}  // namespace

ScaleRun RunShardedVolano(const ScaleConfig& config, int shards) {
  const int num_nodes = config.nodes();
  ELSC_CHECK_MSG(config.rooms >= 1 && num_nodes >= 1, "scale scenario needs rooms");
  ELSC_CHECK_MSG(config.window > 0, "scale window must be positive");
  const Cycles window = config.window;
  const Cycles latency =
      config.fabric_latency == 0 ? window : config.fabric_latency;
  ELSC_CHECK_MSG(latency >= window,
                 "conservative rule: fabric latency must be >= the window");
  const bool gossip = config.gossip_period > 0;
  const bool armed = config.faults.Enabled();
  shards = std::clamp(shards <= 0 ? 1 : shards, 1, num_nodes);

  // Checkpoint knobs: explicit config wins, else the ELSC_SCALE_CKPT*
  // environment, else disabled. The fingerprint binds segments to this exact
  // scenario (and names them, so concurrent sweep cells never collide).
  ScaleCheckpointOptions ckpt = config.ckpt;
  if (ckpt.path.empty()) {
    ckpt = ScaleCheckpointOptions::FromEnv();
  }
  const uint64_t config_fp = ckpt.armed() ? ScaleConfigFingerprint(config) : 0;

  ScaleRun run;
  run.nodes = num_nodes;
  run.shards = shards;
  run.rooms = static_cast<uint64_t>(config.rooms);
  run.connections = config.connections();
  run.fault_model = armed;
  run.digest = kFnv1aOffset;

  FabricRouter router(num_nodes, window, latency);
  if (armed) {
    router.ArmFaults(&config.faults);
  }
  if (config.fabric_lane_capacity > 0) {
    router.SetLaneCapacity(config.fabric_lane_capacity);
  }

  // The router's post-construction state: ResetState() below reimports it
  // when a partially-applied restore is rejected mid-way.
  const FabricRouterState virgin_router = router.ExportState();

  // ---- Build the federation ----
  std::vector<std::unique_ptr<ScaleNode>> nodes(static_cast<size_t>(num_nodes));

  const auto make_node = [&](int i) {
    auto node = std::make_unique<ScaleNode>();
    node->index = i;
    node->first_room = i * config.rooms_per_node;
    node->dst_node = (i + 1) % num_nodes;
    node->src_node = (i + num_nodes - 1) % num_nodes;
    node->config = &config;
    node->router = gossip ? &router : nullptr;
    node->armed = armed;
    node->log_arrivals = ckpt.armed();
    return node;
  };

  const auto build_cold = [&] {
    for (int i = 0; i < num_nodes; ++i) {
      auto node = make_node(i);
      const int owned =
          std::min(config.rooms_per_node, config.rooms - node->first_room);
      node->room_ids.reserve(static_cast<size_t>(owned));
      for (int r = 0; r < owned; ++r) {
        node->room_ids.push_back(node->first_room + r);
      }
      BootNode(node.get(), config);
      nodes[static_cast<size_t>(i)] = std::move(node);
    }
  };

  // ---- Conservative time-windowed lock-step ----
  std::unique_ptr<ThreadPool> pool;
  if (shards > 1) {
    pool = std::make_unique<ThreadPool>(shards);
  }
  const double wall_budget = ResolveWindowBudget(config);

  int live = num_nodes;
  int chats_done = 0;
  bool all_completed = true;
  Cycles inbox_close_at = 0;  // 0 = fabric still open.
  bool inboxes_closed = !gossip;
  uint64_t window_index = 0;
  // Window indices the fabric closed / the inboxes EOF'd at (0 = not yet):
  // checkpoint replay must re-apply both at exactly the original barriers.
  uint64_t router_close_window = 0;
  uint64_t inbox_close_window = 0;
  bool stopped_early = false;  // ckpt.stop_after_window tripped.

  // ---- Delivery sink: schedules a beacon's arrival on its destination ----
  // Runs on the coordinator thread at barriers (no shard is advancing), so
  // ScheduleAt into the destination engine is race-free; the event itself
  // fires on whichever shard advances the destination through `arrival`.
  const auto sink = [&nodes, &window_index](
                        const FabricMessage& msg,
                        Cycles arrival) -> FabricRouter::Delivery {
    ScaleNode* dst = nodes[static_cast<size_t>(msg.dst_node)].get();
    if (dst == nullptr) {
      return FabricRouter::Delivery::kRefused;
    }
    if (dst->down || dst->machine == nullptr) {
      return FabricRouter::Delivery::kDown;
    }
    if (dst->log_arrivals) {
      dst->arrival_log.push_back(CkptArrival{window_index, arrival, msg.payload});
    }
    ScheduleArrivalOn(dst, arrival, msg.payload);
    return FabricRouter::Delivery::kDelivered;
  };

  // Folds every still-live node as failed (partial per-node stats included)
  // and stamps the run's failure — the deadline and watchdog exits.
  const auto fold_failed = [&](const char* tag, const std::string& why) {
    for (size_t n = 0; n < nodes.size(); ++n) {
      ScaleNode* node = nodes[n].get();
      if (node == nullptr) {
        continue;
      }
      RunStats node_stats;
      if (node->machine != nullptr) {
        node_stats = NodeRunStats(*node);
        run.messages_sent += node->volano->messages_sent();
        run.messages_delivered += node->volano->messages_delivered();
      }
      if (node->has_carried_stats) {
        MergeRunStats(&node->carried_stats, node_stats);
        node_stats = node->carried_stats;
      }
      node_stats.failed = true;
      run.messages_sent += node->banked_sent;
      run.messages_delivered += node->banked_delivered;
      run.beacons_sent += node->beacons_sent;
      run.beacons_received += node->beacons_received;
      run.inbox_overflows += node->inbox_overflows;
      run.late_writes += node->late_writes;
      run.retransmits += node->retransmits;
      run.retx_abandoned += node->retx_abandoned;
      run.dup_discards += node->dup_discards;
      run.acks_sent += node->acks_sent;
      run.acks_received += node->acks_received;
      run.chat_messages_lost += node->chat_messages_lost;
      run.crash_inflight_dropped += node->crash_inflight_dropped;
      MergeRunStats(&run.stats, node_stats);
      run.digest = Fnv1a64(
          StrFormat("n%d@%s|", node->index, tag) + RunStatsDigest(node_stats) +
              StrFormat("|fed:%llu,%llu,%llu,%llu;",
                        static_cast<unsigned long long>(node->beacons_sent),
                        static_cast<unsigned long long>(node->beacons_received),
                        static_cast<unsigned long long>(node->inbox_overflows),
                        static_cast<unsigned long long>(node->late_writes)),
          run.digest);
      nodes[n].reset();
      --live;
    }
    all_completed = false;
    run.stats.failed = true;
    if (run.stats.failure.empty()) {
      run.stats.failure = why;
    }
  };

  // ---- Checkpoint machinery (scale_ckpt.h) ------------------------------

  // Serializes the coordinator-visible federation state at the current
  // (post-Exchange, post-fold) barrier.
  const auto snapshot = [&] {
    ScaleCheckpoint c;
    c.config_fp = config_fp;
    c.seed = config.seed;
    c.window_index = window_index;
    c.num_nodes = num_nodes;
    c.chats_done = chats_done;
    c.all_completed = all_completed;
    c.inboxes_closed = inboxes_closed;
    c.inbox_close_at = inbox_close_at;
    c.router_close_window = router_close_window;
    c.inbox_close_window = inbox_close_window;
    c.digest = run.digest;
    c.messages_sent = run.messages_sent;
    c.messages_delivered = run.messages_delivered;
    c.beacons_sent = run.beacons_sent;
    c.beacons_received = run.beacons_received;
    c.inbox_overflows = run.inbox_overflows;
    c.late_writes = run.late_writes;
    c.node_crashes = run.node_crashes;
    c.node_restarts = run.node_restarts;
    c.windows_degraded = run.windows_degraded;
    c.retransmits = run.retransmits;
    c.retx_abandoned = run.retx_abandoned;
    c.dup_discards = run.dup_discards;
    c.acks_sent = run.acks_sent;
    c.acks_received = run.acks_received;
    c.chat_messages_lost = run.chat_messages_lost;
    c.crash_inflight_dropped = run.crash_inflight_dropped;
    c.peak_live_tasks = run.peak_live_tasks;
    c.peak_live_nodes = run.peak_live_nodes;
    c.peak_task_arena_bytes = run.peak_task_arena_bytes;
    c.peak_live_sockets = run.peak_live_sockets;
    c.agg_stats = EncodeRunStats(run.stats);
    c.fabric = router.ExportState();
    for (const auto& owner : nodes) {
      const ScaleNode* node = owner.get();
      if (node == nullptr) {
        continue;  // Folded: its contribution lives in digest/stats above.
      }
      CkptNode cn;
      cn.index = node->index;
      cn.state = node->down ? 2 : 1;
      cn.incarnation = node->incarnation;
      cn.clock_offset = node->clock_offset;
      cn.crashes = node->crashes;
      cn.restart_window = node->restart_window;
      cn.chat_done = node->chat_done;
      cn.banked_sent = node->banked_sent;
      cn.banked_delivered = node->banked_delivered;
      cn.chat_messages_lost = node->chat_messages_lost;
      cn.crash_inflight_dropped = node->crash_inflight_dropped;
      if (node->down) {
        // Nothing to replay: current values restore directly.
        cn.beacons_sent = node->beacons_sent;
        cn.beacons_received = node->beacons_received;
        cn.inbox_overflows = node->inbox_overflows;
        cn.late_writes = node->late_writes;
        cn.last_remote_progress = node->last_remote_progress;
        cn.retransmits = node->retransmits;
        cn.retx_abandoned = node->retx_abandoned;
        cn.dup_discards = node->dup_discards;
        cn.acks_sent = node->acks_sent;
        cn.acks_received = node->acks_received;
      } else {
        // Live: the boot snapshot; replay re-adds this incarnation's deltas.
        const ScaleNode::FedSnapshot& b = node->boot_counters;
        cn.beacons_sent = b.beacons_sent;
        cn.beacons_received = b.beacons_received;
        cn.inbox_overflows = b.inbox_overflows;
        cn.late_writes = b.late_writes;
        cn.last_remote_progress = b.last_remote_progress;
        cn.retransmits = b.retransmits;
        cn.retx_abandoned = b.retx_abandoned;
        cn.dup_discards = b.dup_discards;
        cn.acks_sent = b.acks_sent;
        cn.acks_received = b.acks_received;
        cn.arrivals = node->arrival_log;
        cn.verify = VerifyLine(*node);
      }
      cn.room_ids = node->room_ids;
      if (node->has_carried_stats) {
        cn.carried_stats = EncodeRunStats(node->carried_stats);
      }
      c.nodes.push_back(std::move(cn));
    }
    return c;
  };

  const auto write_checkpoint = [&] {
    std::string error;
    if (!WriteCheckpointSegment(ckpt, snapshot(), &error)) {
      std::fprintf(stderr,
                   "elsc-scale: checkpoint write failed (continuing "
                   "uncheckpointed): %s\n",
                   error.c_str());
    }
  };

  // Reconstructs a live node by deterministic replay of its current
  // incarnation: boot exactly as the original did (same derived seed), step
  // window by window re-scheduling the logged arrivals at their original
  // barriers, and re-apply the router-close / inbox-EOF transitions at the
  // windows the coordinator originally performed them. The node's own
  // re-emissions go into a throwaway per-node router — per node because the
  // closed flag must flip at this node's original window (it gates the
  // transmit relay's exit condition) — and are discarded: the originals
  // already reached their destinations, which logged or folded them.
  const auto replay_live_node = [&](ScaleNode* node, const CkptNode& cn) {
    const uint64_t boot_window = node->incarnation == 0 ? 0 : cn.restart_window;
    FabricRouter replay_router(num_nodes, window, latency);
    if (gossip) {
      node->router = &replay_router;
    }
    const FabricRouter::Sink discard = [](const FabricMessage&, Cycles) {
      return FabricRouter::Delivery::kRefused;
    };
    size_t cursor = 0;
    for (uint64_t w = boot_window; w <= window_index; ++w) {
      const Cycles replay_barrier = static_cast<Cycles>(w) * window;
      if (w > boot_window) {
        // The original run advanced the node through window w before the
        // barrier-w exchange. At the boot window itself the machine had not
        // run yet: arrivals landed on the untouched fresh engine, and
        // stepping it here would fire t=0 start events too early, changing
        // event insertion order.
        node->machine->engine().RunUntil(replay_barrier - node->clock_offset);
        if (gossip) {
          replay_router.Exchange(replay_barrier, discard);
        }
      }
      while (cursor < cn.arrivals.size() && cn.arrivals[cursor].window == w) {
        ScheduleArrivalOn(node, cn.arrivals[cursor].arrival,
                          cn.arrivals[cursor].payload);
        ++cursor;
      }
      if (gossip && router_close_window != 0 && w == router_close_window) {
        replay_router.Close();
      }
      if (gossip && inbox_close_window != 0 && w == inbox_close_window) {
        node->inbox->Close(*node->machine);
      }
    }
    if (gossip) {
      node->router = &router;
    }
    if (cursor != cn.arrivals.size()) {
      return false;  // An arrival tagged past the checkpoint window: corrupt.
    }
    return VerifyLine(*node) == cn.verify;
  };

  // Installs one decoded checkpoint. False leaves partially-applied state —
  // the caller must reset_state() before continuing.
  const auto restore_from = [&](const ScaleCheckpoint& c) {
    run.digest = c.digest;
    run.messages_sent = c.messages_sent;
    run.messages_delivered = c.messages_delivered;
    run.beacons_sent = c.beacons_sent;
    run.beacons_received = c.beacons_received;
    run.inbox_overflows = c.inbox_overflows;
    run.late_writes = c.late_writes;
    run.node_crashes = c.node_crashes;
    run.node_restarts = c.node_restarts;
    run.windows_degraded = c.windows_degraded;
    run.retransmits = c.retransmits;
    run.retx_abandoned = c.retx_abandoned;
    run.dup_discards = c.dup_discards;
    run.acks_sent = c.acks_sent;
    run.acks_received = c.acks_received;
    run.chat_messages_lost = c.chat_messages_lost;
    run.crash_inflight_dropped = c.crash_inflight_dropped;
    run.peak_live_tasks = c.peak_live_tasks;
    run.peak_live_nodes = c.peak_live_nodes;
    run.peak_task_arena_bytes = c.peak_task_arena_bytes;
    run.peak_live_sockets = c.peak_live_sockets;
    if (!DecodeRunStats(c.agg_stats, &run.stats)) {
      return false;
    }
    chats_done = c.chats_done;
    all_completed = c.all_completed;
    inboxes_closed = c.inboxes_closed;
    inbox_close_at = c.inbox_close_at;
    router_close_window = c.router_close_window;
    inbox_close_window = c.inbox_close_window;
    window_index = c.window_index;
    router.ImportState(c.fabric);
    live = 0;
    for (const CkptNode& cn : c.nodes) {
      auto node = make_node(cn.index);
      node->incarnation = cn.incarnation;
      node->clock_offset = cn.clock_offset;
      node->crashes = cn.crashes;
      node->restart_window = cn.restart_window;
      node->chat_done = cn.chat_done;
      node->banked_sent = cn.banked_sent;
      node->banked_delivered = cn.banked_delivered;
      node->chat_messages_lost = cn.chat_messages_lost;
      node->crash_inflight_dropped = cn.crash_inflight_dropped;
      node->beacons_sent = cn.beacons_sent;
      node->beacons_received = cn.beacons_received;
      node->inbox_overflows = cn.inbox_overflows;
      node->late_writes = cn.late_writes;
      node->last_remote_progress = cn.last_remote_progress;
      node->retransmits = cn.retransmits;
      node->retx_abandoned = cn.retx_abandoned;
      node->dup_discards = cn.dup_discards;
      node->acks_sent = cn.acks_sent;
      node->acks_received = cn.acks_received;
      node->room_ids = cn.room_ids;
      if (!cn.carried_stats.empty()) {
        if (!DecodeRunStats(cn.carried_stats, &node->carried_stats)) {
          return false;
        }
        node->has_carried_stats = true;
      }
      // Cheap structural sanity before committing to a replay: a live
      // node's boot barrier must match its clock offset and lie at or
      // before the checkpoint window; a down node's restart must still be
      // in the future.
      const Cycles expect_offset =
          cn.incarnation == 0 ? 0
                              : static_cast<Cycles>(cn.restart_window) * window;
      if (node->clock_offset != expect_offset || cn.room_ids.empty()) {
        return false;
      }
      if (cn.state == 2) {
        if (cn.restart_window <= c.window_index) {
          return false;
        }
        node->down = true;
      } else {
        if (cn.incarnation > 0 && cn.restart_window > c.window_index) {
          return false;
        }
        BootNode(node.get(), config);
        if (!replay_live_node(node.get(), cn)) {
          return false;
        }
        node->arrival_log = cn.arrivals;  // The next segment still needs it.
      }
      nodes[static_cast<size_t>(cn.index)] = std::move(node);
      ++live;
    }
    return live > 0;
  };

  // Returns the function-local state to cold-start values after a rejected
  // restore attempt (nodes, aggregate run, loop state, router).
  const auto reset_state = [&] {
    for (auto& node : nodes) {
      node.reset();
    }
    ScaleRun fresh;
    fresh.nodes = num_nodes;
    fresh.shards = shards;
    fresh.rooms = static_cast<uint64_t>(config.rooms);
    fresh.connections = config.connections();
    fresh.fault_model = armed;
    fresh.digest = kFnv1aOffset;
    run = fresh;
    router.ImportState(virgin_router);
    live = num_nodes;
    chats_done = 0;
    all_completed = true;
    inbox_close_at = 0;
    inboxes_closed = !gossip;
    window_index = 0;
    router_close_window = 0;
    inbox_close_window = 0;
  };

  // Resumes from the newest valid segment. Every rejection — unreadable,
  // torn, checksum-failed, wrong scenario, or post-replay verification
  // mismatch — is logged with a one-line repro and the next-older segment
  // is tried; false means cold start.
  const auto try_restore = [&] {
    if (!ckpt.armed()) {
      return false;
    }
    for (const CheckpointSegmentInfo& seg :
         ListCheckpointSegments(ckpt.path, config_fp)) {
      std::string contents;
      std::string why;
      ScaleCheckpoint c;
      if (!ReadFileToString(seg.path, &contents)) {
        why = "unreadable";
      } else if (!DecodeScaleCheckpoint(contents, &c, &why)) {
        // `why` was set by the decoder.
      } else if (c.config_fp != config_fp || c.seed != config.seed ||
                 c.num_nodes != num_nodes) {
        why = "scenario binding mismatch (fingerprint/seed/nodes)";
      } else if (!restore_from(c)) {
        why = "restore verification failed";
        reset_state();
      } else {
        std::fprintf(
            stderr,
            "elsc-scale: resumed from %s (window %llu, %d node(s) live)\n",
            seg.path.c_str(), static_cast<unsigned long long>(c.window_index),
            live);
        return true;
      }
      std::fprintf(stderr,
                   "elsc-scale: rejected checkpoint %s: %s — repro: rerun "
                   "with ELSC_SCALE_CKPT=%s and this file preserved\n",
                   seg.path.c_str(), why.c_str(), ckpt.path.c_str());
    }
    return false;
  };

  if (!try_restore()) {
    build_cold();
  }

  while (live > 0) {
    ++window_index;
    const Cycles barrier = static_cast<Cycles>(window_index) * window;

    // Advance every live node to the barrier. Node->shard assignment is
    // round-robin by node index; any assignment yields identical results
    // (nodes only interact through the fabric, drained below). Each shard
    // thread (and the serial loop) arms a per-window wall-clock watchdog:
    // a livelocked node fails the federation instead of hanging it.
    bool wall_timeout = false;
    try {
      if (pool != nullptr) {
        for (int s = 0; s < shards; ++s) {
          pool->Submit([&nodes, s, shards, barrier, wall_budget] {
            std::optional<CellWatchdog> dog;
            if (wall_budget > 0.0) {
              dog.emplace(wall_budget);
            }
            for (size_t n = static_cast<size_t>(s); n < nodes.size();
                 n += static_cast<size_t>(shards)) {
              ScaleNode* node = nodes[n].get();
              if (node != nullptr && !node->down) {
                node->machine->engine().RunUntil(barrier - node->clock_offset);
              }
            }
          });
        }
        pool->Wait();  // Rethrows the first shard exception, if any.
      } else {
        std::optional<CellWatchdog> dog;
        if (wall_budget > 0.0) {
          dog.emplace(wall_budget);
        }
        for (auto& node : nodes) {
          if (node != nullptr && !node->down) {
            node->machine->engine().RunUntil(barrier - node->clock_offset);
          }
        }
      }
    } catch (const CellDeadlineExceeded&) {
      if (wall_budget <= 0.0) {
        throw;  // The supervisor's cell watchdog, not ours.
      }
      wall_timeout = true;
    }
    if (wall_timeout) {
      fold_failed("watchdog",
                  StrFormat("federation watchdog: window %llu exceeded %.3fs "
                            "wall-clock",
                            static_cast<unsigned long long>(window_index),
                            wall_budget));
      break;
    }

    // ---- Barrier (coordinator, single-threaded) ----
    // Failure plan, step 1 — crashes scheduled for this window. The node's
    // engine is torn down mid-scenario: queued inbox traffic is discarded
    // (peers see a reset inbox), scheduled arrivals die with the engine,
    // finished rooms' delivery quotas are banked, partial rooms are lost
    // and will re-run at restart.
    if (armed) {
      for (auto& owner : nodes) {
        ScaleNode* node = owner.get();
        if (node == nullptr || node->down || node->machine == nullptr ||
            node->crashes > 0 || node->volano->ChatComplete() ||
            !config.faults.NodeCrashes(node->index) ||
            config.faults.CrashWindow(node->index) != window_index) {
          continue;
        }
        node->inbox->ResetByPeer(*node->machine);
        node->crash_inflight_dropped +=
            node->pending_deliveries + node->inbox->stats().discarded;
        node->pending_deliveries = 0;
        MergeRunStats(&node->carried_stats, NodeRunStats(*node));
        node->has_carried_stats = true;
        const VolanoConfig& chat = node->volano->config();
        const uint64_t room_quota_delivered =
            static_cast<uint64_t>(chat.users_per_room) * chat.users_per_room *
            chat.messages_per_user;
        const uint64_t room_quota_sent =
            static_cast<uint64_t>(chat.users_per_room) * chat.messages_per_user;
        std::vector<int> unfinished;
        for (int r = 0; r < chat.rooms; ++r) {
          if (node->volano->RoomComplete(r)) {
            node->banked_delivered += room_quota_delivered;
            node->banked_sent += room_quota_sent;
          } else {
            node->chat_messages_lost += node->volano->RoomDelivered(r);
            unfinished.push_back(node->room_ids[static_cast<size_t>(r)]);
          }
        }
        node->room_ids = std::move(unfinished);
        node->arrival_log.clear();  // Dead incarnation: never replayed.
        // Teardown in the member-destruction order a folded node uses.
        node->rx.reset();
        node->tx.reset();
        node->inbox.reset();
        node->volano.reset();
        node->machine.reset();
        node->down = true;
        node->restart_window =
            window_index + config.faults.DownWindows(node->index);
        ++node->crashes;
        ++run.node_crashes;
      }
      // Step 2 — restarts due this window: rebuild the node with a derived
      // seed over its unfinished rooms; its fresh engine starts at local
      // t = 0, offset to the current barrier.
      for (auto& owner : nodes) {
        ScaleNode* node = owner.get();
        if (node == nullptr || !node->down ||
            node->restart_window != window_index) {
          continue;
        }
        ++node->incarnation;
        node->clock_offset = barrier;
        node->tx_acked = 0;  // The new incarnation's ids restart the link.
        BootNode(node, config);
        node->down = false;
        ++run.node_restarts;
      }
      for (const auto& node : nodes) {
        if (node != nullptr && node->down) {
          ++run.windows_degraded;
          break;
        }
      }
    }

    // Memory high-water sampling across the live federation.
    uint64_t live_tasks = 0;
    uint64_t arena_bytes = 0;
    uint64_t sockets = 0;
    for (const auto& node : nodes) {
      if (node == nullptr || node->machine == nullptr) {
        continue;
      }
      live_tasks += node->machine->live_tasks();
      arena_bytes += node->machine->task_arena_bytes();
      sockets += node->volano->SocketCount() + (node->inbox ? 1 : 0);
    }
    run.peak_live_tasks = std::max(run.peak_live_tasks, live_tasks);
    run.peak_task_arena_bytes = std::max(run.peak_task_arena_bytes, arena_bytes);
    run.peak_live_sockets = std::max(run.peak_live_sockets, sockets);
    run.peak_live_nodes =
        std::max(run.peak_live_nodes, static_cast<uint64_t>(live));

    // Cross-node traffic exchange (deterministic node/emission order).
    if (gossip) {
      router.Exchange(barrier, sink);
    }

    // Chat-completion scan; once the whole federation's chat is done the
    // fabric closes, and after one more latency the inboxes EOF so the
    // receive relays drain whatever is still in flight and exit.
    for (const auto& node : nodes) {
      if (node != nullptr && node->machine != nullptr && !node->chat_done &&
          node->volano->ChatComplete()) {
        node->chat_done = true;
        ++chats_done;
      }
    }
    if (gossip && !router.closed() && chats_done == num_nodes) {
      router.Close();
      inbox_close_at = barrier + latency;
      router_close_window = window_index;
    }
    if (!inboxes_closed && inbox_close_at != 0 && barrier >= inbox_close_at) {
      for (const auto& node : nodes) {
        if (node != nullptr && node->machine != nullptr) {
          node->inbox->Close(*node->machine);
        }
      }
      inboxes_closed = true;
      inbox_close_window = window_index;
    }

    // Streaming fold: finished nodes are folded into the aggregate in node
    // order and destroyed — constant live state, not O(total nodes).
    for (size_t n = 0; n < nodes.size(); ++n) {
      ScaleNode* node = nodes[n].get();
      if (node == nullptr || node->machine == nullptr ||
          !node->volano->Done()) {
        continue;
      }
      node->completed_window = window_index;
      RunStats node_stats = NodeRunStats(*node);
      if (node->has_carried_stats) {
        // Dead incarnations' partial stats ride along with the final one.
        MergeRunStats(&node->carried_stats, node_stats);
        node_stats = node->carried_stats;
      }
      const VolanoResult result = node->volano->Result();
      all_completed = all_completed && result.completed && !node_stats.failed;
      run.messages_sent += result.messages_sent + node->banked_sent;
      run.messages_delivered += result.messages_delivered + node->banked_delivered;
      run.beacons_sent += node->beacons_sent;
      run.beacons_received += node->beacons_received;
      run.inbox_overflows += node->inbox_overflows;
      run.late_writes += node->late_writes;
      run.retransmits += node->retransmits;
      run.retx_abandoned += node->retx_abandoned;
      run.dup_discards += node->dup_discards;
      run.acks_sent += node->acks_sent;
      run.acks_received += node->acks_received;
      run.chat_messages_lost += node->chat_messages_lost;
      run.crash_inflight_dropped += node->crash_inflight_dropped;
      MergeRunStats(&run.stats, node_stats);
      std::string record =
          StrFormat("n%d@%llu|", node->index,
                    static_cast<unsigned long long>(node->completed_window)) +
          RunStatsDigest(node_stats) +
          StrFormat("|chat:%llu,%llu,%d|fed:%llu,%llu,%llu,%llu;",
                    static_cast<unsigned long long>(result.messages_sent),
                    static_cast<unsigned long long>(result.messages_delivered),
                    result.completed ? 1 : 0,
                    static_cast<unsigned long long>(node->beacons_sent),
                    static_cast<unsigned long long>(node->beacons_received),
                    static_cast<unsigned long long>(node->inbox_overflows),
                    static_cast<unsigned long long>(node->late_writes));
      if (run.fault_model) {
        // The recovery block only exists under an armed plan — fault-free
        // fold records stay byte-identical to the pre-failure-model layout.
        record += StrFormat(
            "|rec:%d,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu;",
            node->incarnation,
            static_cast<unsigned long long>(node->banked_delivered),
            static_cast<unsigned long long>(node->retransmits),
            static_cast<unsigned long long>(node->retx_abandoned),
            static_cast<unsigned long long>(node->dup_discards),
            static_cast<unsigned long long>(node->acks_sent),
            static_cast<unsigned long long>(node->acks_received),
            static_cast<unsigned long long>(node->chat_messages_lost),
            static_cast<unsigned long long>(node->crash_inflight_dropped));
      }
      run.digest = Fnv1a64(record, run.digest);
      nodes[n].reset();
      --live;
    }

    // Simulated-time safety net: fold whatever is still live as failed,
    // partial per-node stats and all.
    if (live > 0 && barrier >= config.deadline) {
      fold_failed("deadline",
                  StrFormat("scale deadline exceeded: %d node(s) still live "
                            "at window %llu",
                            num_nodes - chats_done,
                            static_cast<unsigned long long>(window_index)));
      break;
    }

    // ---- Checkpoint / kill / shutdown points (end of barrier) ----
    if (live > 0) {
      if (ckpt.armed()) {
        const bool due = ckpt.every > 0 && window_index % ckpt.every == 0;
        // Forced segments: the stop-after test hook, a pending graceful
        // shutdown (flush state before unwinding), and the kill injector
        // (the drill resumes from this very segment).
        const bool forced =
            (ckpt.stop_after_window != 0 &&
             window_index == ckpt.stop_after_window) ||
            ShutdownRequested() ||
            ScaleKillWindow() == static_cast<int64_t>(window_index);
        if (due || forced) {
          write_checkpoint();
        }
      }
      MaybeKillAtScaleWindow(window_index);
      if (ShutdownRequested()) {
        throw GracefulShutdownRequested{};
      }
      if (ckpt.armed() && ckpt.stop_after_window != 0 &&
          window_index == ckpt.stop_after_window) {
        stopped_early = true;
        break;
      }
    }
  }

  run.windows = window_index;
  // stopped_early leaves nodes live: a deliberately-partial run (the test
  // stand-in for a mid-scenario kill) is never "completed".
  run.completed = all_completed && live == 0;
  run.fabric = router.stats();
  run.deliveries_lost = run.beacons_sent > run.beacons_received
                            ? run.beacons_sent - run.beacons_received
                            : 0;
  run.elapsed_sec = run.stats.elapsed_sec;
  run.throughput = run.elapsed_sec > 0
                       ? static_cast<double>(run.messages_delivered) / run.elapsed_sec
                       : 0.0;
  // Goodput under faults: deliveries per simulated second of *federation*
  // runtime — downtime, degraded windows, and re-run rooms all stretch the
  // denominator, unlike throughput's max-node-elapsed.
  const double federation_sec = CyclesToSec(static_cast<Cycles>(run.windows) * window);
  run.goodput = federation_sec > 0
                    ? static_cast<double>(run.messages_delivered) / federation_sec
                    : 0.0;
  run.digest = Fnv1a64(
      StrFormat("windows:%llu|fabric:%llu,%llu,%llu,%llu|peaks:%llu,%llu,%llu,%llu",
                static_cast<unsigned long long>(run.windows),
                static_cast<unsigned long long>(run.fabric.emitted),
                static_cast<unsigned long long>(run.fabric.routed),
                static_cast<unsigned long long>(run.fabric.refused),
                static_cast<unsigned long long>(run.fabric.dropped_closed),
                static_cast<unsigned long long>(run.peak_live_tasks),
                static_cast<unsigned long long>(run.peak_live_nodes),
                static_cast<unsigned long long>(run.peak_task_arena_bytes),
                static_cast<unsigned long long>(run.peak_live_sockets)),
      run.digest);
  if (run.fault_model) {
    run.digest = Fnv1a64(
        StrFormat("|chaos:%llu,%llu,%llu,%llu,%llu,%llu,%llu|drops:%llu,%llu,%llu,%llu,%llu",
                  static_cast<unsigned long long>(run.node_crashes),
                  static_cast<unsigned long long>(run.node_restarts),
                  static_cast<unsigned long long>(run.windows_degraded),
                  static_cast<unsigned long long>(run.deliveries_lost),
                  static_cast<unsigned long long>(run.retransmits),
                  static_cast<unsigned long long>(run.retx_abandoned),
                  static_cast<unsigned long long>(run.dup_discards),
                  static_cast<unsigned long long>(run.fabric.dropped_loss),
                  static_cast<unsigned long long>(run.fabric.dropped_partition),
                  static_cast<unsigned long long>(run.fabric.dropped_crashed),
                  static_cast<unsigned long long>(run.fabric.dropped_lane_overflow),
                  static_cast<unsigned long long>(run.fabric.duplicated)),
        run.digest);
  }
  if (ckpt.armed() && live == 0 && !run.stats.failed) {
    // Clean completion: stale segments must never resurrect a finished
    // scenario (a same-fingerprint rerun starts cold). Failed runs keep
    // theirs for post-mortem.
    RemoveCheckpointSegments(ckpt.path, config_fp);
  }
  return run;
}

std::string ScaleRunSignature(const ScaleRun& run) {
  std::string sig = StrFormat(
      "scale:%016llx|nodes:%d|windows:%llu|sent:%llu|delivered:%llu|"
      "beacons:%llu/%llu|drops:%llu+%llu|peak_tasks:%llu|peak_arena:%llu|"
      "elapsed:%a|completed:%d",
      static_cast<unsigned long long>(run.digest), run.nodes,
      static_cast<unsigned long long>(run.windows),
      static_cast<unsigned long long>(run.messages_sent),
      static_cast<unsigned long long>(run.messages_delivered),
      static_cast<unsigned long long>(run.beacons_sent),
      static_cast<unsigned long long>(run.beacons_received),
      static_cast<unsigned long long>(run.inbox_overflows),
      static_cast<unsigned long long>(run.late_writes),
      static_cast<unsigned long long>(run.peak_live_tasks),
      static_cast<unsigned long long>(run.peak_task_arena_bytes),
      run.elapsed_sec, run.completed ? 1 : 0);
  if (run.fault_model) {
    sig += StrFormat(
        "|crashes:%llu|restarts:%llu|degraded:%llu|lost:%llu|retx:%llu+%llu|"
        "dupdrop:%llu|acks:%llu/%llu|goodput:%a",
        static_cast<unsigned long long>(run.node_crashes),
        static_cast<unsigned long long>(run.node_restarts),
        static_cast<unsigned long long>(run.windows_degraded),
        static_cast<unsigned long long>(run.deliveries_lost),
        static_cast<unsigned long long>(run.retransmits),
        static_cast<unsigned long long>(run.retx_abandoned),
        static_cast<unsigned long long>(run.dup_discards),
        static_cast<unsigned long long>(run.acks_sent),
        static_cast<unsigned long long>(run.acks_received), run.goodput);
  }
  if (!run.stats.failure.empty()) {
    sig += "|failure:" + run.stats.failure;
  }
  return sig;
}

std::string RenderScaleJson(const std::vector<ScaleCell>& cells, uint64_t seed,
                            bool include_timing) {
  std::string out;
  out += StrFormat("{\n  \"seed\": %llu,\n  \"cells\": [\n",
                   static_cast<unsigned long long>(seed));
  for (size_t i = 0; i < cells.size(); ++i) {
    const ScaleCell& cell = cells[i];
    const ScaleRun& r = cell.run;
    // The failure-model block renders only for armed plans: fault-free
    // cells keep the exact pre-failure-model byte layout.
    std::string fault_block;
    if (r.fault_model) {
      fault_block = StrFormat(
          "     \"failure_model\": {\"node_crashes\": %llu, "
          "\"node_restarts\": %llu, \"windows_degraded\": %llu, "
          "\"deliveries_lost\": %llu, \"retransmits\": %llu, "
          "\"retx_abandoned\": %llu, \"dup_discards\": %llu, "
          "\"acks_sent\": %llu, \"acks_received\": %llu, "
          "\"crash_inflight_dropped\": %llu, \"chat_messages_lost\": %llu, "
          "\"goodput\": %.4f,\n"
          "      \"fabric_drops\": {\"loss\": %llu, \"partition\": %llu, "
          "\"crashed\": %llu, \"lane_overflow\": %llu, "
          "\"duplicated\": %llu}},\n",
          static_cast<unsigned long long>(r.node_crashes),
          static_cast<unsigned long long>(r.node_restarts),
          static_cast<unsigned long long>(r.windows_degraded),
          static_cast<unsigned long long>(r.deliveries_lost),
          static_cast<unsigned long long>(r.retransmits),
          static_cast<unsigned long long>(r.retx_abandoned),
          static_cast<unsigned long long>(r.dup_discards),
          static_cast<unsigned long long>(r.acks_sent),
          static_cast<unsigned long long>(r.acks_received),
          static_cast<unsigned long long>(r.crash_inflight_dropped),
          static_cast<unsigned long long>(r.chat_messages_lost), r.goodput,
          static_cast<unsigned long long>(r.fabric.dropped_loss),
          static_cast<unsigned long long>(r.fabric.dropped_partition),
          static_cast<unsigned long long>(r.fabric.dropped_crashed),
          static_cast<unsigned long long>(r.fabric.dropped_lane_overflow),
          static_cast<unsigned long long>(r.fabric.duplicated));
    }
    out += StrFormat(
        "    {\"kernel\": \"%s\", \"scheduler\": \"%s\", \"rooms\": %llu, "
        "\"connections\": %llu,\n"
        "     \"nodes\": %d, \"windows\": %llu,\n"
        "     \"messages_sent\": %llu, \"messages_delivered\": %llu, "
        "\"throughput\": %.4f, \"elapsed_sim_sec\": %.6f,\n"
        "     \"tasks_simulated\": %llu, \"events_simulated\": %llu,\n"
        "     \"federation\": {\"beacons_sent\": %llu, \"beacons_received\": %llu, "
        "\"inbox_overflows\": %llu, \"late_writes\": %llu, "
        "\"fabric_routed\": %llu, \"fabric_dropped_closed\": %llu},\n"
        "%s"
        "     \"memory\": {\"peak_live_tasks\": %llu, \"peak_live_nodes\": %llu, "
        "\"peak_task_arena_bytes\": %llu, \"peak_live_sockets\": %llu, "
        "\"total_task_arena_bytes\": %llu, \"total_arena_chunks\": %llu},\n"
        "     \"digest\": \"%016llx\", \"completed\": %s}%s\n",
        KernelConfigLabel(cell.config.kernel),
        SchedulerKindName(cell.config.scheduler),
        static_cast<unsigned long long>(r.rooms),
        static_cast<unsigned long long>(r.connections), r.nodes,
        static_cast<unsigned long long>(r.windows),
        static_cast<unsigned long long>(r.messages_sent),
        static_cast<unsigned long long>(r.messages_delivered), r.throughput,
        r.elapsed_sec,
        static_cast<unsigned long long>(r.stats.machine.tasks_created),
        static_cast<unsigned long long>(r.stats.events.fired),
        static_cast<unsigned long long>(r.beacons_sent),
        static_cast<unsigned long long>(r.beacons_received),
        static_cast<unsigned long long>(r.inbox_overflows),
        static_cast<unsigned long long>(r.late_writes),
        static_cast<unsigned long long>(r.fabric.routed),
        static_cast<unsigned long long>(r.fabric.dropped_closed),
        fault_block.c_str(),
        static_cast<unsigned long long>(r.peak_live_tasks),
        static_cast<unsigned long long>(r.peak_live_nodes),
        static_cast<unsigned long long>(r.peak_task_arena_bytes),
        static_cast<unsigned long long>(r.peak_live_sockets),
        static_cast<unsigned long long>(r.stats.memory.task_arena_bytes),
        static_cast<unsigned long long>(r.stats.memory.task_arena_chunks),
        static_cast<unsigned long long>(r.digest),
        r.completed ? "true" : "false", i + 1 < cells.size() ? "," : "");
  }
  out += "  ]";
  if (include_timing) {
    // Host measurements — everything above this block is simulated data and
    // byte-identical across shard/job counts; the CI determinism gate
    // renders with include_timing == false.
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    out += StrFormat(
        ",\n  \"timing\": {\n    \"host_cpus\": %u, \"peak_rss_kb\": %llu,\n"
        "    \"cells\": [\n",
        std::thread::hardware_concurrency(),
        static_cast<unsigned long long>(usage.ru_maxrss));
    for (size_t i = 0; i < cells.size(); ++i) {
      const ScaleCell& cell = cells[i];
      out += StrFormat(
          "      {\"scheduler\": \"%s\", \"rooms\": %d, \"shards\": %d, "
          "\"wall_sec\": %.4f, \"tasks_per_wall_sec\": %.1f, "
          "\"events_per_wall_sec\": %.1f}%s\n",
          SchedulerKindName(cell.config.scheduler), cell.config.rooms,
          cell.run.shards, cell.wall_sec, cell.tasks_per_wall_sec,
          cell.events_per_wall_sec, i + 1 < cells.size() ? "," : "");
    }
    out += "    ]\n  }";
  }
  out += "\n}\n";
  return out;
}

}  // namespace elsc
