// VolanoMark simulation (paper §4, §6).
//
// VolanoMark benchmarks VolanoChat, a Java chat server: R rooms of 20 users
// each, every user sending 100 messages that the server broadcasts to the
// whole room. Java (1.1) lacks non-blocking I/O, so every socket direction
// gets its own thread — 4 threads per connection, 80 threads per room. Run
// in loopback mode, clients and server share one machine and all traffic is
// scheduler-bound.
//
// This model reproduces the scheduler-relevant structure:
//  * per user u: a client→server socket, a server→client socket, a server-
//    side per-connection output queue, and four threads —
//      client writer  : composes a message, writes c2s, waits until its own
//                       message comes back (closed loop), repeats ×100;
//      client reader  : drains s2c, processing each broadcast delivery;
//      server reader  : reads c2s, parses, fans the message out to every
//                       room member's output queue;
//      server writer  : moves messages from the output queue onto s2c.
//  * all server threads share one mm (the server JVM), all client threads
//    another (the client JVM) — matching loopback mode's two processes.
//  * 2001-era JVM locking is emulated by occasional sched_yield spins before
//    processing steps (the source of the stock scheduler's recalculation
//    storms, paper Figure 2).
//
// Throughput is reported as broadcast deliveries per simulated second.

#ifndef SRC_WORKLOADS_VOLANO_H_
#define SRC_WORKLOADS_VOLANO_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/rng.h"
#include "src/net/backoff.h"
#include "src/net/socket.h"
#include "src/smp/machine.h"

namespace elsc {

class VolanoConnector;
class VolanoListener;

struct VolanoConfig {
  int rooms = 10;
  int users_per_room = 20;
  int messages_per_user = 100;

  // JVM user-level lock emulation: probability a thread spins through
  // sched_yield before a processing step, and the spin count bound.
  double yield_probability = 0.15;
  int max_yield_spin = 2;
  Cycles yield_spin_cycles = UsToCycles(2);
  // Room-monitor emulation: VolanoChat serializes each room's broadcast on a
  // Java monitor, and 2001-era LinuxThreads/JVM monitors resolved contention
  // by spinning through sched_yield — futex-style parking did not exist.
  // Contenders therefore yield-spin (up to this safety cap, then park). When
  // the lock holder blocks mid-broadcast on a full connection queue and a
  // single contender spins alone, every yield sends the stock scheduler
  // through the whole-system counter recalculation at ~10 us intervals —
  // the paper's Figure 2 storm.
  int lock_spin_yields = 30;
  Cycles lock_acquire_cycles = UsToCycles(2);
  // Connection establishment (the benchmark's ramp phase): the client's
  // main thread opens every connection sequentially and yield-polls the
  // handshake; the server's listener accepts, spawns the per-connection
  // threads, and acknowledges. During the ramp the connector is usually the
  // only runnable task, so each of its yields drives the stock scheduler
  // through the whole-system recalculation loop — the dominant contribution
  // to the paper's Figure 2 counts. Chat threads wait on a start barrier
  // until every connection is up (VolanoMark measures from that point).
  Cycles accept_work_cycles = UsToCycles(300);
  Cycles accept_latency_mean = MsToCycles(2);
  int connect_spin_yields = 40;
  // VolanoMark's client threads call Thread.yield() while spinning on the
  // round-trip of their own message before parking. The writer awaiting its
  // broadcast echo is very often the only runnable task at that instant, so
  // each of these yields drives the stock scheduler through the recalculate
  // loop (Figure 2) while ELSC simply re-runs the yielder.
  int ack_spin_yields = 2;

  // CPU costs per operation (jittered by work_jitter), calibrated so a full
  // delivery chain costs ~200 us of 400 MHz CPU — VolanoMark-era loopback
  // throughput territory.
  Cycles compose_cycles = UsToCycles(180);
  Cycles client_process_cycles = UsToCycles(100);
  Cycles server_parse_cycles = UsToCycles(120);
  Cycles broadcast_enqueue_cycles = UsToCycles(15);  // Per room member.
  Cycles server_write_cycles = UsToCycles(80);
  Cycles syscall_cycles = UsToCycles(10);
  double work_jitter = 0.25;

  size_t socket_capacity = 2;   // c2s / s2c wire sockets (small 2001 buffers).
  size_t outqueue_capacity = 4;  // Server-side per-connection output queue.

  // -- Churn mode (overload resilience) --
  //
  // When true, clients tolerate connection churn: wire resets and lost
  // round-trips are retried with bounded exponential backoff + deterministic
  // jitter (reconnecting both wires), and a client that exhausts its retries
  // abandons the connection. Termination switches from exact message counts
  // (which loss would deadlock) to connection teardown: each finished client
  // closes its wires, threads drain to EOF and exit. Default off — the
  // closed-loop protocol and its golden digests are bit-identical.
  bool churn = false;
  // Round-trip deadline on the client's pacing ack (SO_RCVTIMEO analog):
  // a broadcast that fails to echo within this window is presumed lost and
  // the client reconnects + retransmits. Only applied when churn is on.
  Cycles ack_timeout = MsToCycles(40);
  // Reconnect/retransmit backoff (jitter keyed per user, so a mass reset's
  // victims spread their reconnects instead of stampeding).
  BackoffPolicy backoff;

  int threads_per_connection() const { return 4; }
  int total_threads() const { return rooms * users_per_room * threads_per_connection(); }
  uint64_t expected_deliveries() const {
    return static_cast<uint64_t>(rooms) * users_per_room * users_per_room *
           static_cast<uint64_t>(messages_per_user);
  }
};

struct VolanoResult {
  bool completed = false;
  double elapsed_sec = 0.0;
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  double throughput = 0.0;  // Deliveries per simulated second.
  // Churn-mode resilience counters (all zero in the classic closed loop).
  uint64_t resets_seen = 0;      // Wire ResetByPeer() transitions suffered.
  uint64_t retries = 0;          // Failed round-trips retried by clients.
  uint64_t reconnects = 0;       // Wire re-establishments (Reopen pairs).
  uint64_t abandons = 0;         // Clients that gave up after max retries.
  uint64_t messages_lost = 0;    // Deliveries destroyed by resets/teardown.
};

class VolanoWorkload {
 public:
  VolanoWorkload(Machine& machine, const VolanoConfig& config);
  ~VolanoWorkload();

  VolanoWorkload(const VolanoWorkload&) = delete;
  VolanoWorkload& operator=(const VolanoWorkload&) = delete;

  // Creates all sockets, queues, and tasks. Call before Machine::Start().
  void Setup();

  // True once every message has been delivered and every thread has exited.
  bool Done() const;

  VolanoResult Result() const;

  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_delivered() const { return messages_delivered_; }
  const VolanoConfig& config() const { return config_; }

  // Per-room delivery progress, for embedders that must account work at
  // room granularity — the sharded runner's crash/restart path banks the
  // finished rooms of a dead node and re-runs only the unfinished ones.
  uint64_t RoomDelivered(int room) const {
    return room_delivered_[static_cast<size_t>(room)];
  }
  bool RoomComplete(int room) const {
    return RoomDelivered(room) == static_cast<uint64_t>(config_.users_per_room) *
                                      config_.users_per_room *
                                      config_.messages_per_user;
  }
  int CompletedRooms() const {
    int done = 0;
    for (int r = 0; r < config_.rooms; ++r) {
      done += RoomComplete(r) ? 1 : 0;
    }
    return done;
  }

  // True once the chat protocol itself has finished (all deliveries in the
  // classic closed loop; every writer done in churn mode) even if threads
  // are still draining to exit. The sharded runner (src/api/scale.h) keys
  // its federation shutdown off this.
  bool ChatComplete() const {
    if (config_.churn) {
      return done_writers_ ==
             static_cast<uint64_t>(config_.rooms) * config_.users_per_room;
    }
    return messages_delivered_ == config_.expected_deliveries();
  }

  // Sockets this workload owns (4 per connection + the accept queue); feeds
  // the memory high-water block of RunStats.
  uint64_t SocketCount() const {
    return static_cast<uint64_t>(connections_.size()) * 4 + (accept_queue_ ? 1 : 0);
  }

  // The server JVM's mm, exposed so embedders (the sharded runner's
  // federation relays) can co-locate extra server-side threads.
  MmStruct* server_mm() { return server_mm_; }

  // Ramp-phase state, exposed for the thread behaviors.
  bool chat_started() const { return chat_started_; }
  WaitQueue* start_barrier() { return start_barrier_.get(); }

  // Sockets the connection-lifecycle fault injectors may victimize: the c2s
  // and s2c wires of every connection (the queues behind them — outq, ack —
  // are server/client internals, not network). See
  // FaultInjector::AttachLifecycleTargets.
  std::vector<SimSocket*> LifecycleTargets();

 private:
  friend class VolanoClientWriter;
  friend class VolanoClientReader;
  friend class VolanoServerReader;
  friend class VolanoServerWriter;
  friend class VolanoConnector;
  friend class VolanoListener;

  struct RoomState {
    bool lock_held = false;
    std::unique_ptr<WaitQueue> lock_wait;
    uint64_t contended_acquires = 0;
  };

  struct Connection {
    Connection(int room, const VolanoConfig& config)
        : room(room),
          c2s(config.socket_capacity),
          s2c(config.socket_capacity),
          outq(config.outqueue_capacity),
          ack(4) {}

    int room;
    SimSocket c2s;   // Client -> server wire.
    SimSocket s2c;   // Server -> client wire.
    SimSocket outq;  // Server-side broadcast output queue.
    SimSocket ack;   // Client pacing: own-broadcast-seen tokens.
  };
  // A Connection and its four threads' behaviors, in one heap block
  // (defined in volano.cc, after the behaviors).
  struct ConnectionRecord;

  Connection& connection(int user);
  RoomState& room_state(int room) { return *rooms_[static_cast<size_t>(room)]; }
  // Global user index of member m of room r.
  int UserIndex(int room, int member) const { return room * config_.users_per_room + member; }

  // Dynamic thread creation during the ramp (listener/connector spawn the
  // per-connection threads, exactly as the real client and server do).
  void SpawnServerThreads(int user);
  void SpawnClientThreads(int user);

  // Churn-mode teardown: a finished writer closes its c2s (plus the whole
  // connection when it abandoned); once every writer is done the chat shuts
  // down and the remaining threads drain to EOF.
  void OnWriterDone(int user, bool abandoned);
  void ShutdownChat();

  Machine& machine_;
  VolanoConfig config_;
  Rng rng_;
  MmStruct* server_mm_ = nullptr;
  MmStruct* client_mm_ = nullptr;
  std::vector<std::unique_ptr<ConnectionRecord>> connections_;  // By user index.
  std::vector<std::unique_ptr<RoomState>> rooms_;
  std::unique_ptr<VolanoListener> listener_;
  std::unique_ptr<VolanoConnector> connector_;
  std::unique_ptr<SimSocket> accept_queue_;
  std::unique_ptr<WaitQueue> start_barrier_;
  bool chat_started_ = false;
  uint64_t messages_sent_ = 0;
  uint64_t messages_delivered_ = 0;
  std::vector<uint64_t> room_delivered_;  // Deliveries landed, per room.
  uint64_t next_message_id_ = 1;
  // Churn-mode progress and resilience counters.
  uint64_t done_writers_ = 0;
  uint64_t retries_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t abandons_ = 0;
  uint64_t messages_lost_ = 0;
};

}  // namespace elsc

#endif  // SRC_WORKLOADS_VOLANO_H_
