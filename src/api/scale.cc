#include "src/api/scale.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "src/api/scale_ckpt.h"
#include "src/base/assert.h"
#include "src/base/atomic_file.h"
#include "src/base/fnv.h"
#include "src/base/json_writer.h"
#include "src/base/string_util.h"
#include "src/base/token_codec.h"
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

FederationCounters& FederationCounters::operator+=(const FederationCounters& other) {
  AddCounters(this, other, kFederationCounterFields);
  return *this;
}

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
// those branches.
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
  // Oldest first. Filled only when a fault plan is armed, so a fault-free
  // node never allocates it.
  std::vector<Unacked> unacked_;
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
    for (const uint64_t id : reorder_) {
      s += StrFormat(";%llu", static_cast<unsigned long long>(id));
    }
    return s;
  }

 private:
  Segment Process(Machine& machine, const Message& beacon);

  ScaleNode* node_;
  uint64_t cum_ = 0;         // Highest contiguously-processed beacon id.
  uint64_t last_acked_ = 0;  // cum_ value carried by the last ack sent.
  std::set<uint64_t> reorder_;  // Ids of out-of-order beacons, bounded.
};

// One node of the federation: an independent Machine simulating its rooms,
// plus the fabric endpoints. Owned by the coordinator; advanced by exactly
// one shard thread per window; destroyed (streaming fold) at the barrier
// where its workload completes. Under the failure model a node can
// additionally be torn down mid-scenario (crash) and rebuilt with a derived
// seed (restart) — `life` and the counters deliberately live here, not in
// the machine, so they survive incarnations.
struct ScaleNode {
  NodeLifecycle life;
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

  // Single-writer: this node's tasks and delivery events (on its shard
  // thread) and the coordinator's crash step (at a barrier, when no shard
  // runs). They persist across restarts.
  FederationCounters fed;
  uint64_t tx_acked = 0;  // Cumulative ack from the ring successor.

  // Arrivals scheduled on this incarnation's engine that have not landed
  // yet (incremented by the coordinator sink at barriers, decremented by
  // the delivery event on the shard thread — phases never overlap).
  uint64_t pending_deliveries = 0;

  // --- Checkpoint support (scale_ckpt.h) ---
  // Fabric deliveries the coordinator sink scheduled onto this incarnation's
  // engine, in sink-call order (duplicates appear twice). Restore replays
  // them verbatim at their original barriers. Only populated when
  // checkpointing is armed; cleared at every boot.
  bool log_arrivals = false;
  std::vector<CkptArrival> arrival_log;
  // `fed` at this incarnation's boot. Task- and event-mutated counters
  // cannot be serialized live (their current values are the boot values
  // plus this incarnation's deltas, and replay reproduces the deltas), so a
  // checkpoint stores these. tx_acked needs no snapshot: it is 0 at boot.
  FederationCounters boot_fed;
};

// Jitter key for one unacked beacon's retransmission schedule.
uint64_t RetxKey(const ScaleNode& node, uint64_t id) {
  return (static_cast<uint64_t>(node.life.index) << 32) ^ id;
}

FederationTx::FederationTx(ScaleNode* node)
    : node_(node),
      next_beacon_id_(static_cast<uint64_t>(node->life.incarnation)
                      << kIncarnationShift) {}

Segment FederationTx::NextSegment(Machine& machine, Task& task) {
  (void)task;
  const ScaleConfig& cfg = *node_->config;
  const bool armed = node_->armed;
  if (armed) {
    // Cumulative ack from the ring successor: everything at or below it
    // arrived — purge it from the retransmission buffer.
    const auto first_unacked =
        std::find_if(unacked_.begin(), unacked_.end(),
                     [this](const Unacked& u) { return u.id > node_->tx_acked; });
    unacked_.erase(unacked_.begin(), first_unacked);
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
  const Cycles global_now = node_->life.clock_offset + now;
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
        ++node_->fed.retx_abandoned;
        unacked_.erase(unacked_.begin() + static_cast<long>(i));
        continue;
      }
      u.msg.sent_at = global_now;
      node_->router->Emit(node_->life.index, node_->dst_node, global_now, u.msg);
      ++node_->fed.retransmits;
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
      beacon.sender = node_->life.index;
      beacon.room = node_->life.room_ids[static_cast<size_t>(r)];
      beacon.sent_at = global_now;
      beacon.payload = node_->volano->messages_delivered();
      node_->router->Emit(node_->life.index, node_->dst_node, global_now, beacon);
      ++node_->fed.beacons_sent;
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
          unacked_.erase(unacked_.begin());
          ++node_->fed.retx_abandoned;
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
        ++node_->fed.beacons_received;
        return Segment::RunAgain(cfg.gossip_process_cycles);
      }
      return Process(machine, beacon);
    case SockStatus::kWouldBlock:
      if (node_->armed && cum_ > last_acked_) {
        // Inbox drained: return one cumulative ack covering everything
        // processed since the last ack (delayed-ack batching for free).
        Message ack;
        ack.id = cum_;
        ack.sender = node_->life.index;
        ack.room = kAckRoom;
        const Cycles global_now = node_->life.clock_offset + machine.Now();
        ack.sent_at = global_now;
        ack.payload = cum_;
        node_->router->Emit(node_->life.index, node_->src_node, global_now, ack);
        last_acked_ = cum_;
        ++node_->fed.acks_sent;
        return Segment::RunAgain(cfg.beacon_cycles);
      }
      return Segment::Block(cfg.chat.syscall_cycles, &inbox->read_wait(),
                            [inbox] { return !inbox->ReadReady(); });
    default:  // kEof / kClosed / kReset: the federation shut down.
      return Segment::Exit(cfg.chat.syscall_cycles);
  }
}

Segment FederationRx::Process(Machine& machine, const Message& beacon) {
  (void)machine;
  const ScaleConfig& cfg = *node_->config;
  if (beacon.room == kAckRoom) {
    // The successor's cumulative ack for our own transmissions.
    if (beacon.payload > node_->tx_acked) {
      node_->tx_acked = beacon.payload;
    }
    ++node_->fed.acks_received;
    return Segment::RunAgain(cfg.chat.syscall_cycles);
  }
  const uint64_t id = beacon.id;
  if (id <= cum_ || reorder_.count(id) != 0) {
    ++node_->fed.dup_discards;
    return Segment::RunAgain(cfg.chat.syscall_cycles);
  }
  if (id > cum_ + 1 && id <= cum_ + cfg.recovery_gap_span &&
      reorder_.size() < cfg.recovery_gap_span) {
    reorder_.insert(id);  // A small gap: wait for the beacons before it.
    return Segment::RunAgain(cfg.chat.syscall_cycles);
  }
  // In order, or a gap too wide (a restarted predecessor's incarnation jump
  // is 2^48) or a full reorder buffer: jump past it. Buffered beacons below
  // the jump target still get processed; the rest of the gap is this run's
  // deliveries_lost.
  const auto below = reorder_.lower_bound(id);
  uint64_t processed =
      1 + static_cast<uint64_t>(std::distance(reorder_.begin(), below));
  reorder_.erase(reorder_.begin(), below);
  cum_ = id;
  // Drain whatever the new cum_ made contiguous.
  while (!reorder_.empty() && *reorder_.begin() == cum_ + 1) {
    ++cum_;
    ++processed;
    reorder_.erase(reorder_.begin());
  }
  node_->fed.beacons_received += processed;
  return Segment::RunAgain(cfg.gossip_process_cycles *
                           static_cast<Cycles>(processed));
}

// Per-node RunStats snapshot: the facade's CollectStats plus the node's
// sockets (its chat workload's and the fabric inbox).
RunStats NodeRunStats(const ScaleNode& node) {
  RunStats stats = CollectStats(*node.machine);
  stats.memory.peak_live_sockets = node.volano->SocketCount() + (node.inbox ? 1 : 0);
  return stats;
}

// The node's stats over every incarnation: the live machine's (none while
// down) merged onto the dead incarnations' carried stats.
RunStats LifetimeStats(const ScaleNode& node) {
  RunStats stats = node.life.carried_stats.value_or(RunStats{});
  if (node.machine != nullptr) {
    MergeRunStats(&stats, NodeRunStats(node));
  }
  return stats;
}

// The tail both fold paths hash into a node's digest record: its
// incarnation, the deliveries banked from dead incarnations, and every
// FederationCounters entry.
std::string FedDigestTuple(const ScaleNode& node) {
  std::string tuple = StrFormat("|rec:%d,%llu|fed:", node.life.incarnation,
                                static_cast<unsigned long long>(node.life.banked_delivered));
  AppendCounters(&tuple, node.fed, kFederationCounterFields);
  return tuple;
}

// Schedules one fabric delivery onto `dst`'s engine. Shared by the live
// coordinator sink and checkpoint replay so both paths produce identical
// engine insertion order and identical delivery-event behavior. Never logs
// (the sink logs before calling; replayed arrivals are already logged).
void ScheduleArrivalOn(ScaleNode* dst, Cycles arrival, const Message& payload) {
  ++dst->pending_deliveries;
  const auto deliver = [dst, payload] {
    --dst->pending_deliveries;
    switch (dst->inbox->TryWriteMsg(*dst->machine, payload)) {
      case SockStatus::kOk:
        break;
      case SockStatus::kWouldBlock:
        // Bounded inbox full: the beacon is dropped like a datagram
        // against a full receive buffer.
        ++dst->fed.inbox_overflows;
        break;
      default:  // kClosed / kReset: delivery raced the shutdown.
        ++dst->fed.late_writes;
        break;
    }
  };
  // A heap-allocated delivery would move callback_heap_allocs, and with it
  // every federation EngineDigest and the checkpoint verification lines.
  static_assert(sizeof(deliver) <= EventCallback::kInlineSize,
                "the delivery closure must fit EventCallback's inline storage");
  // A restarted machine's clock is offset: schedule at local time.
  dst->machine->engine().ScheduleAt(arrival - dst->life.clock_offset, deliver);
}

// Checkpoint verification line for a live node: every node-local value the
// next windows' behavior depends on. Computed at checkpoint time and again
// after restore replay — any divergence rejects the segment.
std::string VerifyLine(const ScaleNode& node) {
  std::string line = "fed:";
  AppendCounters(&line, node.fed, kFederationCounterFields);
  line += StrFormat("|ack:%llu|pend:%llu|",
                    static_cast<unsigned long long>(node.tx_acked),
                    static_cast<unsigned long long>(node.pending_deliveries));
  const RunStats stats = NodeRunStats(node);
  line += RunStatsDigest(stats) + "|" + EngineDigest(stats);
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
// workload over its room_ids, inbox, and federation relays, and starts it.
void BootNode(ScaleNode* node, const ScaleConfig& config) {
  const uint64_t seed_key =
      node->life.incarnation == 0
          ? kScaleSeedKey
          : kScaleRestartKey + static_cast<uint64_t>(node->life.incarnation);
  MachineConfig mc = MakeMachineConfig(
      config.kernel, config.scheduler,
      DeriveSeed(config.seed, seed_key, static_cast<uint64_t>(node->life.index)));
  node->machine = std::make_unique<Machine>(mc);

  VolanoConfig chat = config.chat;
  chat.rooms = static_cast<int>(node->life.room_ids.size());
  node->volano = std::make_unique<VolanoWorkload>(*node->machine, chat);
  node->volano->Setup();

  if (node->router != nullptr) {
    node->inbox = std::make_unique<SimSocket>(config.fabric_inbox_capacity);
    node->tx = std::make_unique<FederationTx>(node);
    node->rx = std::make_unique<FederationRx>(node);
    // The relays are server-process threads: share the server JVM's mm.
    TaskParams params;
    params.mm = node->volano->server_mm();
    params.name = StrFormat("node%d.fedtx", node->life.index);
    params.behavior = node->tx.get();
    node->machine->CreateTask(params);
    params.name = StrFormat("node%d.fedrx", node->life.index);
    params.behavior = node->rx.get();
    node->machine->CreateTask(params);
  }
  // Checkpoint bookkeeping: a fresh incarnation starts a fresh arrival log,
  // and the counter values right now are what replay will restart from.
  node->arrival_log.clear();
  node->boot_fed = node->fed;
  node->machine->Start();
}

// One run of the sharded federation: its nodes, fabric router, aggregate,
// and coordinator loop state, with one method per barrier step.
// RunShardedVolano restores one from a checkpoint segment or builds one
// cold, then runs it. A restore that fails part-way leaves the object
// half-built; the caller discards it and starts again with a fresh one, so
// no step ever needs undoing.
class Federation {
 public:
  Federation(const ScaleConfig& config, int shards,
             const ScaleCheckpointOptions& ckpt, uint64_t config_fp);
  Federation(const Federation&) = delete;  // Nodes point at router_.
  Federation& operator=(const Federation&) = delete;

  // Cold start: boots every node at local time 0.
  void Build();
  // Installs a decoded checkpoint, replaying every live node. False means
  // the segment was rejected and this object is half-built.
  bool Restore(const ScaleCheckpoint& c);
  // Runs windows until every node has folded (or a deadline, watchdog, or
  // stop-after exit) and returns the finished aggregate.
  ScaleRun Run();

 private:
  std::unique_ptr<ScaleNode> MakeNode(int index);
  FabricRouter::Delivery Sink(const FabricMessage& msg, Cycles arrival);
  bool Advance(ThreadPool* pool, Cycles barrier);
  void AdvanceShard(int shard, Cycles barrier);
  void CrashAndRestart(Cycles barrier);
  void SamplePeaks();
  void Exchange(Cycles barrier);
  void CloseIfDone(Cycles barrier);
  void FoldFinished();
  void FoldFailed(const char* tag, const std::string& why);
  void Fold(std::unique_ptr<ScaleNode>* owner, const RunStats& stats, const std::string& head,
            const std::string& chat);
  ScaleCheckpoint Snapshot() const;
  bool Replay(ScaleNode* node, const CkptNode& cn);
  bool CheckpointPoint();
  ScaleRun Finish();

  const ScaleConfig& config_;
  const int num_nodes_;
  const int shards_;
  const Cycles latency_;
  const bool gossip_;
  const bool armed_;  // config_.faults.Enabled().
  const ScaleCheckpointOptions ckpt_;
  const uint64_t config_fp_;
  const double wall_budget_;  // Per-window watchdog; 0 = off.
  const uint64_t kill_window_;  // ELSC_SCALE_INJECT_KILL; 0 = off.

  // What a checkpoint carries, besides the fabric cursor and each node's
  // lifecycle (scale_ckpt.h).
  ScaleRun run_;
  FederationLoop loop_;

  FabricRouter router_;
  std::vector<std::unique_ptr<ScaleNode>> nodes_;  // Null once folded.
  int live_ = 0;
};

Federation::Federation(const ScaleConfig& config, int shards,
                       const ScaleCheckpointOptions& ckpt, uint64_t config_fp)
    : config_(config),
      num_nodes_(config.nodes()),
      shards_(shards),
      latency_(config.fabric_latency == 0 ? config.window : config.fabric_latency),
      gossip_(config.gossip_period > 0),
      armed_(config.faults.Enabled()),
      ckpt_(ckpt),
      config_fp_(config_fp),
      // The config's budget wins (negative = off); 0 takes the supervisor's.
      wall_budget_(config.window_wall_budget_sec != 0.0
                       ? std::max(config.window_wall_budget_sec, 0.0)
                       : CellTimeoutSec()),
      kill_window_(ScaleKillWindow()),
      router_(num_nodes_, config.window, latency_),
      nodes_(static_cast<size_t>(num_nodes_)) {
  if (armed_) {
    router_.ArmFaults(&config.faults);
  }
  if (config.fabric_lane_capacity > 0) {
    router_.SetLaneCapacity(config.fabric_lane_capacity);
  }
  run_.digest = kFnv1aOffset;
}

std::unique_ptr<ScaleNode> Federation::MakeNode(int index) {
  auto node = std::make_unique<ScaleNode>();
  node->life.index = index;
  node->dst_node = (index + 1) % num_nodes_;
  node->src_node = (index + num_nodes_ - 1) % num_nodes_;
  node->config = &config_;
  node->router = gossip_ ? &router_ : nullptr;
  node->armed = armed_;
  node->log_arrivals = ckpt_.armed();
  return node;
}

void Federation::Build() {
  for (int i = 0; i < num_nodes_; ++i) {
    auto node = MakeNode(i);
    const int first_room = i * config_.rooms_per_node;
    const int owned = std::min(config_.rooms_per_node, config_.rooms - first_room);
    node->life.room_ids.reserve(static_cast<size_t>(owned));
    for (int r = 0; r < owned; ++r) {
      node->life.room_ids.push_back(first_room + r);
    }
    BootNode(node.get(), config_);
    nodes_[static_cast<size_t>(i)] = std::move(node);
  }
  live_ = num_nodes_;
}

// Delivery sink: schedules a beacon's arrival on its destination. Runs on
// the coordinator thread at barriers (no shard is advancing), so ScheduleAt
// into the destination engine is race-free; the event itself fires on
// whichever shard advances the destination through `arrival`.
FabricRouter::Delivery Federation::Sink(const FabricMessage& msg, Cycles arrival) {
  ScaleNode* dst = nodes_[static_cast<size_t>(msg.dst_node)].get();
  if (dst == nullptr) {
    return FabricRouter::Delivery::kRefused;
  }
  if (dst->life.down || dst->machine == nullptr) {
    return FabricRouter::Delivery::kDown;
  }
  if (dst->log_arrivals) {
    dst->arrival_log.push_back(CkptArrival{loop_.window_index, arrival, msg.payload});
  }
  ScheduleArrivalOn(dst, arrival, msg.payload);
  return FabricRouter::Delivery::kDelivered;
}

// Advances every live node to the barrier. Node->shard assignment is
// round-robin by node index; any assignment yields identical results (nodes
// only interact through the fabric, drained at the barrier). False when the
// per-window wall-clock watchdog fired: a livelocked node fails the
// federation instead of hanging it.
bool Federation::Advance(ThreadPool* pool, Cycles barrier) {
  try {
    if (pool == nullptr) {
      AdvanceShard(0, barrier);  // One shard: the coordinator runs it.
    } else {
      for (int s = 0; s < shards_; ++s) {
        pool->Submit([this, s, barrier] { AdvanceShard(s, barrier); });
      }
      pool->Wait();  // Rethrows the first shard exception, if any.
    }
  } catch (const CellDeadlineExceeded&) {
    if (wall_budget_ <= 0.0) {
      throw;  // The supervisor's cell watchdog, not ours.
    }
    return false;
  }
  return true;
}

// One shard's share of a window: nodes shard, shard + shards_, ..., under a
// watchdog armed on the calling thread (the pool worker or the coordinator).
void Federation::AdvanceShard(int shard, Cycles barrier) {
  CellWatchdog dog(wall_budget_);
  for (size_t n = static_cast<size_t>(shard); n < nodes_.size();
       n += static_cast<size_t>(shards_)) {
    ScaleNode* node = nodes_[n].get();
    if (node != nullptr && !node->life.down) {
      node->machine->engine().RunUntil(barrier - node->life.clock_offset);
    }
  }
}

// Failure plan, step 1 — crashes scheduled for this window. The node's
// engine is torn down mid-scenario: queued inbox traffic is discarded
// (peers see a reset inbox), scheduled arrivals die with the engine,
// finished rooms' delivery quotas are banked, partial rooms are lost and
// will re-run at restart. A node crashes at most once.
void Federation::CrashAndRestart(Cycles barrier) {
  for (auto& owner : nodes_) {
    ScaleNode* node = owner.get();
    if (node == nullptr || node->life.down || node->machine == nullptr ||
        node->life.crashes > 0 || node->volano->ChatComplete() ||
        !config_.faults.NodeCrashes(node->life.index) ||
        config_.faults.CrashWindow(node->life.index) != loop_.window_index) {
      continue;
    }
    if (node->inbox != nullptr) {  // Null with gossip off: nothing in flight.
      node->inbox->ResetByPeer(*node->machine);
      node->fed.crash_inflight_dropped +=
          node->pending_deliveries + node->inbox->stats().discarded;
    }
    node->pending_deliveries = 0;
    node->life.carried_stats = LifetimeStats(*node);
    const VolanoConfig& chat = node->volano->config();
    const uint64_t room_quota_delivered =
        static_cast<uint64_t>(chat.users_per_room) * chat.users_per_room *
        chat.messages_per_user;
    const uint64_t room_quota_sent =
        static_cast<uint64_t>(chat.users_per_room) * chat.messages_per_user;
    std::vector<int> unfinished;
    for (int r = 0; r < chat.rooms; ++r) {
      if (node->volano->RoomComplete(r)) {
        node->life.banked_delivered += room_quota_delivered;
        node->life.banked_sent += room_quota_sent;
      } else {
        node->fed.chat_messages_lost += node->volano->RoomDelivered(r);
        unfinished.push_back(node->life.room_ids[static_cast<size_t>(r)]);
      }
    }
    node->life.room_ids = std::move(unfinished);
    node->arrival_log.clear();  // Dead incarnation: never replayed.
    // Teardown in the member-destruction order a folded node uses.
    node->rx.reset();
    node->tx.reset();
    node->inbox.reset();
    node->volano.reset();
    node->machine.reset();
    node->life.down = true;
    node->life.restart_window =
        loop_.window_index + config_.faults.DownWindows(node->life.index);
    ++node->life.crashes;
    ++run_.node_crashes;
  }
  // Step 2 — restarts due this window: rebuild the node with a derived
  // seed over its unfinished rooms; its fresh engine starts at local
  // t = 0, offset to the current barrier.
  for (auto& owner : nodes_) {
    ScaleNode* node = owner.get();
    if (node == nullptr || !node->life.down || node->life.restart_window != loop_.window_index) {
      continue;
    }
    ++node->life.incarnation;
    node->life.clock_offset = barrier;
    node->tx_acked = 0;  // The new incarnation's ids restart the link.
    BootNode(node, config_);
    node->life.down = false;
    ++run_.node_restarts;
  }
  for (const auto& node : nodes_) {
    if (node != nullptr && node->life.down) {
      ++run_.windows_degraded;
      break;
    }
  }
}

// Memory high-water sampling across the live federation.
void Federation::SamplePeaks() {
  uint64_t live_tasks = 0;
  uint64_t arena_bytes = 0;
  uint64_t sockets = 0;
  for (const auto& node : nodes_) {
    if (node == nullptr || node->machine == nullptr) {
      continue;
    }
    live_tasks += node->machine->live_tasks();
    arena_bytes += node->machine->task_arena_bytes();
    sockets += node->volano->SocketCount() + (node->inbox ? 1 : 0);
  }
  run_.peak_live_tasks = std::max(run_.peak_live_tasks, live_tasks);
  run_.peak_task_arena_bytes = std::max(run_.peak_task_arena_bytes, arena_bytes);
  run_.peak_live_sockets = std::max(run_.peak_live_sockets, sockets);
  run_.peak_live_nodes = std::max(run_.peak_live_nodes, static_cast<uint64_t>(live_));
}

// Cross-node traffic exchange (deterministic node/emission order).
void Federation::Exchange(Cycles barrier) {
  if (gossip_) {
    router_.Exchange(barrier, [this](const FabricMessage& msg, Cycles arrival) {
      return Sink(msg, arrival);
    });
  }
}

// Chat-completion scan; once the whole federation's chat is done the
// fabric closes, and after one more latency the inboxes EOF so the receive
// relays drain whatever is still in flight and exit.
void Federation::CloseIfDone(Cycles barrier) {
  for (const auto& node : nodes_) {
    if (node != nullptr && node->machine != nullptr && !node->life.chat_done &&
        node->volano->ChatComplete()) {
      node->life.chat_done = true;
      ++loop_.chats_done;
    }
  }
  if (gossip_ && !router_.closed() && loop_.chats_done == num_nodes_) {
    router_.Close();
    loop_.router_close_window = loop_.window_index;
  }
  if (gossip_ && loop_.router_close_window != 0 && loop_.inbox_close_window == 0 &&
      barrier >= static_cast<Cycles>(loop_.router_close_window) * config_.window + latency_) {
    for (const auto& node : nodes_) {
      if (node != nullptr && node->machine != nullptr) {
        node->inbox->Close(*node->machine);
      }
    }
    loop_.inbox_close_window = loop_.window_index;
  }
}

// Streaming fold: finished nodes are folded into the aggregate in node
// order and destroyed — constant live state, not O(total nodes).
void Federation::FoldFinished() {
  for (auto& owner : nodes_) {
    ScaleNode* node = owner.get();
    if (node == nullptr || node->machine == nullptr || !node->volano->Done()) {
      continue;
    }
    const RunStats stats = LifetimeStats(*node);
    const VolanoResult result = node->volano->Result();
    loop_.all_completed = loop_.all_completed && result.completed && !stats.failed;
    Fold(&owner, stats,
         StrFormat("n%d@%llu|", node->life.index,
                   static_cast<unsigned long long>(loop_.window_index)),
         StrFormat("|chat:%llu,%llu,%d", static_cast<unsigned long long>(result.messages_sent),
                   static_cast<unsigned long long>(result.messages_delivered),
                   result.completed ? 1 : 0));
  }
}

// Folds every still-live node as failed (partial per-node stats included)
// and stamps the run's failure — the deadline and watchdog exits.
void Federation::FoldFailed(const char* tag, const std::string& why) {
  for (auto& owner : nodes_) {
    if (owner == nullptr) {
      continue;
    }
    RunStats stats = LifetimeStats(*owner);
    stats.failed = true;
    Fold(&owner, stats, StrFormat("n%d@%s|", owner->life.index, tag), "");
  }
  loop_.all_completed = false;
  run_.stats.failed = true;
  if (run_.stats.failure.empty()) {
    run_.stats.failure = why;
  }
}

// The step both fold paths share: adds the node's chat totals (its running
// incarnation's plus the banked ones), counters and lifetime `stats` to the
// aggregate, chains its digest record — `head`, RunStatsDigest, `chat`,
// FedDigestTuple — and destroys it.
void Federation::Fold(std::unique_ptr<ScaleNode>* owner, const RunStats& stats,
                      const std::string& head, const std::string& chat) {
  const ScaleNode& node = **owner;
  run_.messages_sent += node.life.banked_sent;
  run_.messages_delivered += node.life.banked_delivered;
  if (node.machine != nullptr) {
    run_.messages_sent += node.volano->messages_sent();
    run_.messages_delivered += node.volano->messages_delivered();
  }
  run_.fed += node.fed;
  MergeRunStats(&run_.stats, stats);
  run_.digest = Fnv1a64(head + RunStatsDigest(stats) + chat + FedDigestTuple(node), run_.digest);
  owner->reset();
  --live_;
}

// Serializes the coordinator-visible federation state at the current
// (post-Exchange, post-fold) barrier.
ScaleCheckpoint Federation::Snapshot() const {
  ScaleCheckpoint c;
  c.config_fp = config_fp_;
  c.seed = config_.seed;
  c.num_nodes = num_nodes_;
  c.loop = loop_;
  c.run = run_;
  c.fabric = router_.ExportState();
  for (const auto& owner : nodes_) {
    const ScaleNode* node = owner.get();
    if (node == nullptr) {
      continue;  // Folded: its contribution lives in the aggregate.
    }
    CkptNode cn;
    cn.life = node->life;
    // A down node restores its current values directly. A live node stores
    // its boot values and replay re-adds the deltas — exact for the crash
    // counters too: the coordinator writes them only at a crash, which ends
    // the incarnation, so they cannot move while the node is live.
    cn.fed = node->life.down ? node->fed : node->boot_fed;
    if (!node->life.down) {
      cn.arrivals = node->arrival_log;
      cn.verify = VerifyLine(*node);
    }
    c.nodes.push_back(std::move(cn));
  }
  return c;
}

// Reconstructs a live node by deterministic replay of its current
// incarnation: boot exactly as the original did (same derived seed), step
// window by window re-scheduling the logged arrivals at their original
// barriers, and re-apply the router-close / inbox-EOF transitions at the
// windows the coordinator originally performed them. The node's own
// re-emissions go into a throwaway per-node router — per node because the
// closed flag must flip at this node's original window (it gates the
// transmit relay's exit condition) — and are discarded: the originals
// already reached their destinations, which logged or folded them.
bool Federation::Replay(ScaleNode* node, const CkptNode& cn) {
  const uint64_t boot_window = node->life.incarnation == 0 ? 0 : node->life.restart_window;
  FabricRouter replay_router(num_nodes_, config_.window, latency_);
  if (gossip_) {
    node->router = &replay_router;
  }
  const FabricRouter::Sink discard = [](const FabricMessage&, Cycles) {
    return FabricRouter::Delivery::kRefused;
  };
  size_t cursor = 0;
  for (uint64_t w = boot_window; w <= loop_.window_index; ++w) {
    const Cycles replay_barrier = static_cast<Cycles>(w) * config_.window;
    if (w > boot_window) {
      // The original run advanced the node through window w before the
      // barrier-w exchange. At the boot window itself the machine had not
      // run yet: arrivals landed on the untouched fresh engine, and
      // stepping it here would fire t=0 start events too early, changing
      // event insertion order.
      node->machine->engine().RunUntil(replay_barrier - node->life.clock_offset);
      if (gossip_) {
        replay_router.Exchange(replay_barrier, discard);
      }
    }
    while (cursor < cn.arrivals.size() && cn.arrivals[cursor].window == w) {
      ScheduleArrivalOn(node, cn.arrivals[cursor].arrival,
                        cn.arrivals[cursor].payload);
      ++cursor;
    }
    if (gossip_ && loop_.router_close_window != 0 && w == loop_.router_close_window) {
      replay_router.Close();
    }
    if (gossip_ && loop_.inbox_close_window != 0 && w == loop_.inbox_close_window) {
      node->inbox->Close(*node->machine);
    }
  }
  if (gossip_) {
    node->router = &router_;
  }
  if (cursor != cn.arrivals.size()) {
    return false;  // An arrival tagged past the checkpoint window: corrupt.
  }
  return VerifyLine(*node) == cn.verify;
}

bool Federation::Restore(const ScaleCheckpoint& c) {
  run_ = c.run;
  loop_ = c.loop;
  router_.ImportState(c.fabric);
  for (const CkptNode& cn : c.nodes) {
    const NodeLifecycle& life = cn.life;
    // Cheap structural sanity before committing to a replay: a live
    // node's boot barrier must match its clock offset and lie at or
    // before the checkpoint window; a down node's restart must still be
    // in the future.
    const Cycles expect_offset =
        life.incarnation == 0 ? 0 : static_cast<Cycles>(life.restart_window) * config_.window;
    if (life.clock_offset != expect_offset || life.room_ids.empty() ||
        (life.down ? life.restart_window <= loop_.window_index
                   : life.incarnation > 0 && life.restart_window > loop_.window_index)) {
      return false;
    }
    auto node = MakeNode(life.index);
    node->life = life;
    node->fed = cn.fed;
    if (!life.down) {
      BootNode(node.get(), config_);
      if (!Replay(node.get(), cn)) {
        return false;
      }
      node->arrival_log = cn.arrivals;  // The next segment still needs it.
    }
    nodes_[static_cast<size_t>(life.index)] = std::move(node);
    ++live_;
  }
  return live_ > 0;
}

// The checkpoint, kill and shutdown points at the end of a barrier. True
// when the stop-after-window test hook ends the run here, leaving nodes
// live: a deliberately partial run, never "completed".
bool Federation::CheckpointPoint() {
  const bool stop =
      ckpt_.armed() && ckpt_.stop_after_window != 0 &&
      loop_.window_index == ckpt_.stop_after_window;
  if (ckpt_.armed()) {
    const bool due = ckpt_.every > 0 && loop_.window_index % ckpt_.every == 0;
    // Forced segments: the stop-after test hook, a pending graceful
    // shutdown (flush state before unwinding), and the kill injector (the
    // drill resumes from this very segment).
    const bool forced = stop || ShutdownRequested() || loop_.window_index == kill_window_;
    std::string error;
    if ((due || forced) && !WriteCheckpointSegment(ckpt_, Snapshot(), &error)) {
      std::fprintf(stderr,
                   "elsc-scale: checkpoint write failed (continuing "
                   "uncheckpointed): %s\n",
                   error.c_str());
    }
  }
  MaybeKillAtScaleWindow(kill_window_, loop_.window_index);
  if (ShutdownRequested()) {
    throw GracefulShutdownRequested{};
  }
  return stop;
}

ScaleRun Federation::Run() {
  std::unique_ptr<ThreadPool> pool;
  if (shards_ > 1) {
    pool = std::make_unique<ThreadPool>(shards_);
  }
  while (live_ > 0) {
    ++loop_.window_index;
    const Cycles barrier = static_cast<Cycles>(loop_.window_index) * config_.window;
    if (!Advance(pool.get(), barrier)) {
      FoldFailed("watchdog",
                 StrFormat("federation watchdog: window %llu exceeded %.3fs "
                           "wall-clock",
                           static_cast<unsigned long long>(loop_.window_index),
                           wall_budget_));
      break;
    }
    // ---- Barrier (coordinator, single-threaded) ----
    if (armed_) {
      CrashAndRestart(barrier);
    }
    SamplePeaks();
    Exchange(barrier);
    CloseIfDone(barrier);
    FoldFinished();
    // Simulated-time safety net: fold whatever is still live as failed,
    // partial per-node stats and all.
    if (live_ > 0 && barrier >= config_.deadline) {
      FoldFailed("deadline",
                 StrFormat("scale deadline exceeded: %d node(s) still live "
                           "at window %llu",
                           num_nodes_ - loop_.chats_done,
                           static_cast<unsigned long long>(loop_.window_index)));
      break;
    }
    if (live_ > 0 && CheckpointPoint()) {
      break;
    }
  }
  return Finish();
}

// Stamps every field the config, the shard count and the router determine,
// and the scenario trailer onto the digest.
ScaleRun Federation::Finish() {
  run_.nodes = num_nodes_;
  run_.shards = shards_;
  run_.rooms = static_cast<uint64_t>(config_.rooms);
  run_.connections = config_.connections();
  run_.windows = loop_.window_index;
  run_.completed = loop_.all_completed && live_ == 0;
  run_.fabric = router_.stats();
  const FederationCounters& fed = run_.fed;
  run_.deliveries_lost = fed.beacons_sent > fed.beacons_received
                             ? fed.beacons_sent - fed.beacons_received
                             : 0;
  run_.elapsed_sec = run_.stats.elapsed_sec;
  run_.throughput = run_.elapsed_sec > 0
                        ? static_cast<double>(run_.messages_delivered) / run_.elapsed_sec
                        : 0.0;
  // Goodput under faults: deliveries per simulated second of *federation*
  // runtime — downtime, degraded windows, and re-run rooms all stretch the
  // denominator, unlike throughput's max-node-elapsed.
  const double federation_sec =
      CyclesToSec(static_cast<Cycles>(run_.windows) * config_.window);
  run_.goodput = federation_sec > 0
                     ? static_cast<double>(run_.messages_delivered) / federation_sec
                     : 0.0;
  // The run-level fed totals stay out (each fold record carries its node's),
  // and so does peak_task_arena_bytes, a host layout figure (chunks x
  // sizeof(Chunk)): the digest covers only what the scenario simulates.
  std::string trailer =
      StrFormat("windows:%llu|fabric:", static_cast<unsigned long long>(run_.windows));
  AppendCounters(&trailer, run_.fabric, kFabricCounters);
  trailer += StrFormat("|peaks:%llu,%llu,%llu|chaos:%llu,%llu,%llu,%llu",
                       static_cast<unsigned long long>(run_.peak_live_tasks),
                       static_cast<unsigned long long>(run_.peak_live_nodes),
                       static_cast<unsigned long long>(run_.peak_live_sockets),
                       static_cast<unsigned long long>(run_.node_crashes),
                       static_cast<unsigned long long>(run_.node_restarts),
                       static_cast<unsigned long long>(run_.windows_degraded),
                       static_cast<unsigned long long>(run_.deliveries_lost));
  run_.digest = Fnv1a64(trailer, run_.digest);
  if (ckpt_.armed() && live_ == 0 && !run_.stats.failed) {
    // Clean completion: stale segments must never resurrect a finished
    // scenario (a same-fingerprint rerun starts cold). Failed runs keep
    // theirs for post-mortem.
    RemoveCheckpointSegments(ckpt_.path, config_fp_);
  }
  return std::move(run_);
}

// Resumes from the newest valid segment. Every rejection — unreadable,
// torn, checksum-failed, wrong scenario, or post-replay verification
// mismatch — is logged with a one-line repro and the next-older segment
// is tried, each on a fresh Federation; null means cold start.
std::unique_ptr<Federation> RestoreFederation(const ScaleConfig& config, int shards,
                                              const ScaleCheckpointOptions& ckpt,
                                              uint64_t config_fp) {
  if (!ckpt.armed()) {
    return nullptr;
  }
  for (const CheckpointSegmentInfo& seg : ListCheckpointSegments(ckpt.path, config_fp)) {
    std::string contents;
    std::string why;
    ScaleCheckpoint c;
    if (!ReadFileToString(seg.path, &contents)) {
      why = "unreadable";
    } else if (!DecodeScaleCheckpoint(contents, &c, &why)) {
      // `why` was set by the decoder.
    } else if (c.config_fp != config_fp || c.seed != config.seed ||
               c.num_nodes != config.nodes()) {
      why = "scenario binding mismatch (fingerprint/seed/nodes)";
    } else {
      auto federation = std::make_unique<Federation>(config, shards, ckpt, config_fp);
      if (federation->Restore(c)) {
        std::fprintf(stderr,
                     "elsc-scale: resumed from %s (window %llu, %zu node(s) live)\n",
                     seg.path.c_str(), static_cast<unsigned long long>(c.loop.window_index),
                     c.nodes.size());
        return federation;
      }
      why = "restore verification failed";
    }
    std::fprintf(stderr,
                 "elsc-scale: rejected checkpoint %s: %s — repro: rerun "
                 "with ELSC_SCALE_CKPT=%s and this file preserved\n",
                 seg.path.c_str(), why.c_str(), ckpt.path.c_str());
  }
  return nullptr;
}

}  // namespace

ScaleRun RunShardedVolano(const ScaleConfig& config, int shards) {
  const int num_nodes = config.nodes();
  ELSC_CHECK_MSG(config.rooms >= 1 && num_nodes >= 1, "scale scenario needs rooms");
  ELSC_CHECK_MSG(config.window > 0, "scale window must be positive");
  // fabric_latency == 0 means one window.
  ELSC_CHECK_MSG(config.fabric_latency == 0 || config.fabric_latency >= config.window,
                 "conservative rule: fabric latency must be >= the window");
  shards = std::clamp(shards <= 0 ? 1 : shards, 1, num_nodes);

  // Checkpoint knobs: explicit config wins, else the ELSC_SCALE_CKPT*
  // environment, else disabled. The fingerprint binds segments to this exact
  // scenario (and names them, so concurrent sweep cells never collide).
  const ScaleCheckpointOptions ckpt =
      config.ckpt.path.empty() ? ScaleCheckpointOptions::FromEnv() : config.ckpt;
  const uint64_t config_fp = ckpt.armed() ? ScaleConfigFingerprint(config) : 0;

  std::unique_ptr<Federation> federation =
      RestoreFederation(config, shards, ckpt, config_fp);
  if (federation == nullptr) {
    federation = std::make_unique<Federation>(config, shards, ckpt, config_fp);
    federation->Build();
  }
  return federation->Run();
}

std::string ScaleRunSignature(const ScaleRun& run) {
  std::string sig = StrFormat(
      "scale:%016llx|nodes:%d|windows:%llu|sent:%llu|delivered:%llu|"
      "beacons:%llu/%llu|drops:%llu+%llu|peak_tasks:%llu|"
      "elapsed:%a|completed:%d|crashes:%llu|restarts:%llu|degraded:%llu|"
      "lost:%llu|retx:%llu+%llu|dupdrop:%llu|acks:%llu/%llu|goodput:%a|",
      static_cast<unsigned long long>(run.digest), run.nodes,
      static_cast<unsigned long long>(run.windows),
      static_cast<unsigned long long>(run.messages_sent),
      static_cast<unsigned long long>(run.messages_delivered),
      static_cast<unsigned long long>(run.fed.beacons_sent),
      static_cast<unsigned long long>(run.fed.beacons_received),
      static_cast<unsigned long long>(run.fed.inbox_overflows),
      static_cast<unsigned long long>(run.fed.late_writes),
      static_cast<unsigned long long>(run.peak_live_tasks), run.elapsed_sec,
      run.completed ? 1 : 0, static_cast<unsigned long long>(run.node_crashes),
      static_cast<unsigned long long>(run.node_restarts),
      static_cast<unsigned long long>(run.windows_degraded),
      static_cast<unsigned long long>(run.deliveries_lost),
      static_cast<unsigned long long>(run.fed.retransmits),
      static_cast<unsigned long long>(run.fed.retx_abandoned),
      static_cast<unsigned long long>(run.fed.dup_discards),
      static_cast<unsigned long long>(run.fed.acks_sent),
      static_cast<unsigned long long>(run.fed.acks_received), run.goodput);
  // The engine counters ride at the end, so a change that moves only them
  // moves only this field.
  sig += EngineDigest(run.stats);
  if (!run.stats.failure.empty()) {
    sig += "|failure:" + run.stats.failure;
  }
  return sig;
}

std::string RenderScaleJson(const std::vector<ScaleCell>& cells, uint64_t seed,
                            bool include_timing) {
  JsonWriter json;
  json.Field("seed", seed).Array("cells");
  for (const ScaleCell& cell : cells) {
    const ScaleRun& r = cell.run;
    json.Object()
        .Field("kernel", KernelConfigLabel(cell.config.kernel))
        .Field("scheduler", SchedulerKindName(cell.config.scheduler))
        .Field("rooms", r.rooms)
        .Field("connections", r.connections)
        .Field("nodes", r.nodes)
        .Field("windows", r.windows)
        .Field("messages_sent", r.messages_sent)
        .Field("messages_delivered", r.messages_delivered)
        .Fixed("throughput", r.throughput, 4)
        .Fixed("elapsed_sim_sec", r.elapsed_sec, 6)
        .Field("tasks_simulated", r.stats.machine.tasks_created)
        .Field("events_simulated", r.stats.events.fired)
        .Counters("fed", r.fed, kFederationCounterFields)
        .Counters("fabric", r.fabric, kFabricCounters);
    json.Object("failure_model")
        .Field("node_crashes", r.node_crashes)
        .Field("node_restarts", r.node_restarts)
        .Field("windows_degraded", r.windows_degraded)
        .Field("deliveries_lost", r.deliveries_lost)
        .Fixed("goodput", r.goodput, 4)
        .End();
    json.Object("memory")
        .Field("peak_live_tasks", r.peak_live_tasks)
        .Field("peak_live_nodes", r.peak_live_nodes)
        .Field("peak_task_arena_bytes", r.peak_task_arena_bytes)
        .Field("peak_live_sockets", r.peak_live_sockets)
        .Field("total_task_arena_bytes", r.stats.memory.task_arena_bytes)
        .Field("total_arena_chunks", r.stats.memory.task_arena_chunks)
        .End();
    json.Field("digest", StrFormat("%016llx", static_cast<unsigned long long>(r.digest)))
        .Field("engine", EngineDigest(r.stats))
        .Field("completed", r.completed)
        .End();
  }
  json.End();
  if (include_timing) {
    // Host measurements — everything above this block is simulated data and
    // byte-identical across shard/job counts; the CI determinism gate
    // renders with include_timing == false.
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    json.Object("timing")
        .Field("host_cpus", std::thread::hardware_concurrency())
        .Field("peak_rss_kb", usage.ru_maxrss)
        .Array("cells");
    for (const ScaleCell& cell : cells) {
      json.Object()
          .Field("scheduler", SchedulerKindName(cell.config.scheduler))
          .Field("rooms", cell.config.rooms)
          .Field("shards", cell.run.shards)
          .Fixed("wall_sec", cell.wall_sec, 4)
          .Fixed("tasks_per_wall_sec", cell.tasks_per_wall_sec, 1)
          .Fixed("events_per_wall_sec", cell.events_per_wall_sec, 1)
          .End();
    }
    json.End().End();
  }
  return json.Finish();
}

}  // namespace elsc
