#include "src/workloads/volano.h"

#include "src/base/assert.h"
#include "src/base/string_util.h"
#include "src/net/socket_ops.h"
#include "src/workloads/micro_behaviors.h"

namespace elsc {

namespace {

// Shared yield-spin emulation: 2001-era JVM monitors back off through
// sched_yield; each processing step occasionally spins.
class VolanoThreadBase : public TaskBehavior {
 public:
  VolanoThreadBase(VolanoWorkload* workload, Rng rng) : workload_(workload), rng_(rng) {}
  // A per-connection thread is built with its connection's record and gets
  // its stream from set_rng() when it is spawned.
  explicit VolanoThreadBase(VolanoWorkload* workload) : VolanoThreadBase(workload, Rng(0)) {}

  void set_rng(Rng rng) { rng_ = rng; }

 protected:
  const VolanoConfig& cfg() const { return workload_->config(); }

  // Returns a yield segment if a spin is pending; call at the top of
  // NextSegment().
  bool TakeYield(Segment* out) {
    if (pending_yields_ == 0) {
      return false;
    }
    --pending_yields_;
    *out = Segment::Yield(cfg().yield_spin_cycles);
    return true;
  }

  // Rolls the dice for a new yield spin before a processing step.
  void RollYields() {
    if (cfg().yield_probability > 0.0 && rng_.NextBool(cfg().yield_probability)) {
      pending_yields_ = 1 + static_cast<int>(rng_.NextBelow(
                                static_cast<uint64_t>(cfg().max_yield_spin)));
    }
  }

  Cycles Jitter(Cycles base) { return JitterCycles(rng_, base, cfg().work_jitter); }

  // Chat threads park until every connection is established (VolanoMark
  // starts the message exchange only once the rooms are fully built).
  bool AwaitStartBarrier(Segment* out) {
    if (workload_->chat_started()) {
      return false;
    }
    VolanoWorkload* w = workload_;
    *out = Segment::Block(cfg().syscall_cycles, w->start_barrier(),
                          [w] { return !w->chat_started(); });
    return true;
  }

  VolanoWorkload* workload_;
  Rng rng_;
  int pending_yields_ = 0;
};

}  // namespace

// Composes and sends this user's messages; closed loop — the next message is
// composed only after the user's previous message came back in a broadcast.
//
// Churn mode adds the resilient-client protocol: the pacing ack carries a
// receive deadline, so a round trip killed by a wire reset (or simply lost)
// wakes the writer with a timeout; the writer then reconnects both wires,
// backs off with per-user deterministic jitter, and retransmits the same
// message. A message only counts as committed when its own echo returns;
// after backoff.max_retries consecutive failures the client abandons the
// connection. The classic (!churn) paths are untouched.
class VolanoClientWriter : public VolanoThreadBase {
 public:
  VolanoClientWriter(VolanoWorkload* workload, int user)
      : VolanoThreadBase(workload), user_(user) {}

  Segment NextSegment(Machine& machine, Task& task) override {
    if (Segment gate; AwaitStartBarrier(&gate)) {
      return gate;
    }
    Segment yield_seg;
    if (TakeYield(&yield_seg)) {
      return yield_seg;
    }
    auto& conn = workload_->connection(user_);
    switch (phase_) {
      case Phase::kCompose: {
        phase_ = Phase::kWrite;
        RollYields();
        return Segment::RunAgain(Jitter(cfg().compose_cycles));
      }
      case Phase::kWrite: {
        if (!cfg().churn || !msg_in_flight_) {
          msg_ = Message{};
          msg_.id = workload_->next_message_id_++;
          msg_.sender = user_;
          msg_.room = conn.room;
          msg_.sent_at = machine.Now();
          msg_in_flight_ = true;
        }
        const SockStatus st = conn.c2s.TryWriteMsg(machine, msg_);
        if (st == SockStatus::kWouldBlock) {
          // Wire full: block until the server reader drains it, then retry.
          return BlockUntilWritable(cfg().syscall_cycles, conn.c2s);
        }
        if (st != SockStatus::kOk) {
          // Reset/closed mid-send (churn only — wires never die otherwise).
          return HandleRoundFailure(machine);
        }
        ++sent_;
        ++workload_->messages_sent_;
        if (!cfg().churn && sent_ == cfg().messages_per_user) {
          return Segment::Exit(cfg().syscall_cycles);
        }
        phase_ = Phase::kAwaitTurn;
        return Segment::RunAgain(cfg().syscall_cycles);
      }
      case Phase::kAwaitTurn: {
        auto& ack = conn.ack;
        Message token;
        const SockStatus st = ack.TryReadMsg(machine, &token);
        // Clear a pending ack deadline whether or not the token made it —
        // a stale timeout flag must not fail the NEXT round spuriously.
        const bool timed_out = cfg().churn && ConsumeReadTimeout(task, ack);
        if (st == SockStatus::kOk) {
          if (cfg().churn && token.id != msg_.id) {
            // Echo of an earlier retransmission; this round is still open.
            return Segment::RunAgain(cfg().syscall_cycles);
          }
          ack_spins_ = 0;
          attempts_ = 0;
          msg_in_flight_ = false;
          if (cfg().churn) {
            ++committed_;
            if (committed_ == cfg().messages_per_user) {
              workload_->OnWriterDone(user_, /*abandoned=*/false);
              return Segment::Exit(cfg().syscall_cycles);
            }
          }
          phase_ = Phase::kCompose;
          return Segment::RunAgain(cfg().syscall_cycles);
        }
        if (st == SockStatus::kWouldBlock) {
          if (timed_out) {
            // The round trip blew its deadline: presume the message (or its
            // echo) died with a reset and run the retry protocol.
            return HandleRoundFailure(machine);
          }
          // Thread.yield() spin on the round trip, then park.
          if (ack_spins_ < cfg().ack_spin_yields) {
            ++ack_spins_;
            return Segment::Yield(cfg().yield_spin_cycles);
          }
          ack_spins_ = 0;
          return BlockUntilReadable(cfg().syscall_cycles, ack);
        }
        // Ack stream torn down under us: treat like a failed round.
        return HandleRoundFailure(machine);
      }
    }
    __builtin_unreachable();
  }

 private:
  enum class Phase { kCompose, kWrite, kAwaitTurn };

  // The resilient-client core: reconnect both wires, back off with
  // deterministic per-user jitter, retransmit — or abandon once the retry
  // budget is spent.
  Segment HandleRoundFailure(Machine& machine) {
    auto& conn = workload_->connection(user_);
    ++attempts_;
    if (cfg().backoff.ShouldAbandon(attempts_)) {
      ++workload_->abandons_;
      workload_->OnWriterDone(user_, /*abandoned=*/true);
      return Segment::Exit(cfg().syscall_cycles);
    }
    ++workload_->retries_;
    ++workload_->reconnects_;
    conn.c2s.Reopen(machine);
    conn.s2c.Reopen(machine);
    ack_spins_ = 0;
    phase_ = Phase::kWrite;  // Retransmit the in-flight message on wake.
    uint64_t key = static_cast<uint64_t>(user_);
    return Segment::Sleep(cfg().syscall_cycles,
                          cfg().backoff.Delay(SplitMix64(&key), attempts_));
  }

  int user_;
  Phase phase_ = Phase::kCompose;
  int sent_ = 0;
  int committed_ = 0;  // Rounds whose echo returned (churn progress).
  int attempts_ = 0;   // Consecutive failed rounds (reset by any success).
  int ack_spins_ = 0;
  bool msg_in_flight_ = false;
  Message msg_;
};

// Drains the server→client wire, processing each broadcast delivery; when
// the user's own message arrives, releases the writer for the next one.
class VolanoClientReader : public VolanoThreadBase {
 public:
  VolanoClientReader(VolanoWorkload* workload, int user)
      : VolanoThreadBase(workload), user_(user) {}

  Segment NextSegment(Machine& machine, Task& task) override {
    (void)task;
    if (Segment gate; AwaitStartBarrier(&gate)) {
      return gate;
    }
    Segment yield_seg;
    if (TakeYield(&yield_seg)) {
      return yield_seg;
    }
    auto& conn = workload_->connection(user_);
    const int expected = cfg().users_per_room * cfg().messages_per_user;
    if (!cfg().churn && received_ == expected) {
      return Segment::Exit(cfg().syscall_cycles);
    }
    Message msg;
    const SockStatus st = conn.s2c.TryReadMsg(machine, &msg);
    if (st == SockStatus::kWouldBlock) {
      return BlockUntilReadable(cfg().syscall_cycles, conn.s2c);
    }
    if (st == SockStatus::kEof) {
      if (!cfg().churn || conn.s2c.state() == SocketState::kClosed) {
        // Connection torn down for good (abandon or chat shutdown).
        return Segment::Exit(cfg().syscall_cycles);
      }
      // Injected half-open: the server side is alive and still writing
      // (writes land on a half-open socket), so this EOF is not final.
      // Park until data lands or the state resolves (Reopen/Close/reset
      // all wake the read queue).
      SimSocket* sock = &conn.s2c;
      return Segment::Block(cfg().syscall_cycles, &sock->read_wait(), [sock] {
        return !sock->CanRead() && sock->state() == SocketState::kHalfOpen;
      });
    }
    if (st == SockStatus::kReset) {
      // The wire died; the client writer owns reconnection. Park until the
      // socket leaves the reset state (Reopen or Close both wake us).
      SimSocket* sock = &conn.s2c;
      return Segment::Block(cfg().syscall_cycles, &sock->read_wait(),
                            [sock] { return sock->reset(); });
    }
    ++received_;
    ++workload_->messages_delivered_;
    ++workload_->room_delivered_[static_cast<size_t>(conn.room)];
    if (msg.sender == user_) {
      // Our own message completed the round trip: let the writer proceed.
      // The token carries the message id so a churn-mode writer can tell a
      // live echo from the echo of an earlier retransmission.
      Message token;
      token.id = msg.id;
      token.sender = user_;
      const SockStatus ack_st = conn.ack.TryWriteMsg(machine, token);
      if (!cfg().churn) {
        ELSC_CHECK_MSG(ack_st == SockStatus::kOk,
                       "volano ack queue overflow (pacing invariant broken)");
      }
      // Churn: a full/closed ack queue just means a redundant echo from a
      // retransmit storm — dropping the token is safe, the writer's
      // deadline covers the rare loss of a live one.
    }
    RollYields();
    return Segment::RunAgain(Jitter(cfg().client_process_cycles));
  }

 private:
  int user_;
  int received_ = 0;
};

// Reads this connection's inbound wire and fans each message out to every
// room member's output queue.
class VolanoServerReader : public VolanoThreadBase {
 public:
  VolanoServerReader(VolanoWorkload* workload, int user)
      : VolanoThreadBase(workload), user_(user) {}

  Segment NextSegment(Machine& machine, Task& task) override {
    (void)task;
    if (Segment gate; AwaitStartBarrier(&gate)) {
      return gate;
    }
    Segment yield_seg;
    if (TakeYield(&yield_seg)) {
      return yield_seg;
    }
    auto& conn = workload_->connection(user_);
    auto& room = workload_->room_state(conn.room);
    switch (phase_) {
      case Phase::kRead: {
        if (!cfg().churn && handled_ == cfg().messages_per_user) {
          return Segment::Exit(cfg().syscall_cycles);
        }
        Message msg;
        const SockStatus st = conn.c2s.TryReadMsg(machine, &msg);
        if (st == SockStatus::kWouldBlock) {
          return BlockUntilReadable(cfg().syscall_cycles, conn.c2s);
        }
        if (st == SockStatus::kEof) {
          if (!cfg().churn || conn.c2s.state() == SocketState::kClosed) {
            // The client finished (or abandoned) and closed its wire.
            return Segment::Exit(cfg().syscall_cycles);
          }
          // Injected half-open: the client is alive and its writes still
          // land, so keep serving — exiting here would leave the user
          // permanently deaf and wedge its writer on a full wire.
          SimSocket* sock = &conn.c2s;
          return Segment::Block(cfg().syscall_cycles, &sock->read_wait(), [sock] {
            return !sock->CanRead() && sock->state() == SocketState::kHalfOpen;
          });
        }
        if (st == SockStatus::kReset) {
          // Injected reset: the client will reconnect (Reopen wakes us);
          // a Close instead means it abandoned, and we exit via kEof above.
          SimSocket* sock = &conn.c2s;
          return Segment::Block(cfg().syscall_cycles, &sock->read_wait(),
                                [sock] { return sock->reset(); });
        }
        pending_ = msg;
        next_member_ = 0;
        phase_ = Phase::kAcquireLock;
        RollYields();
        return Segment::RunAgain(Jitter(cfg().server_parse_cycles));
      }
      case Phase::kAcquireLock: {
        // The room monitor: broadcasts are serialized per room. Contenders
        // use the JVM's adaptive spin — sched_yield up to lock_spin_yields
        // times hoping the holder releases, then park on the monitor.
        if (!room.lock_held) {
          room.lock_held = true;
          lock_spins_ = 0;
          phase_ = Phase::kBroadcast;
          return Segment::RunAgain(cfg().lock_acquire_cycles);
        }
        ++room.contended_acquires;
        if (lock_spins_ < cfg().lock_spin_yields) {
          ++lock_spins_;
          return Segment::Yield(cfg().yield_spin_cycles);
        }
        lock_spins_ = 0;
        bool* held = &room.lock_held;
        return Segment::Block(cfg().syscall_cycles, room.lock_wait.get(),
                              [held] { return *held; });
      }
      case Phase::kBroadcast: {
        while (next_member_ < cfg().users_per_room) {
          const int target = workload_->UserIndex(conn.room, next_member_);
          SimSocket& outq = workload_->connection(target).outq;
          const SockStatus st = outq.TryWriteMsg(machine, pending_);
          if (st == SockStatus::kWouldBlock) {
            // Member's output queue full: the broadcast stalls *while
            // holding the room monitor* — the paper era's storm scenario —
            // and resumes exactly where it stopped.
            return BlockUntilWritable(cfg().syscall_cycles, outq);
          }
          if (st != SockStatus::kOk) {
            // Member's connection is gone (abandon/shutdown teardown): the
            // broadcast skips them instead of stalling the whole room.
            ++workload_->messages_lost_;
          }
          ++next_member_;
        }
        ++handled_;
        // Release the monitor and hand it to one parked waiter.
        room.lock_held = false;
        room.lock_wait->WakeOne(machine);
        phase_ = Phase::kRead;
        const Cycles fanout_work =
            cfg().broadcast_enqueue_cycles * static_cast<Cycles>(cfg().users_per_room);
        return Segment::RunAgain(Jitter(fanout_work));
      }
    }
    __builtin_unreachable();
  }

 private:
  enum class Phase { kRead, kAcquireLock, kBroadcast };
  int user_;
  Phase phase_ = Phase::kRead;
  int handled_ = 0;
  Message pending_;
  int next_member_ = 0;
  int lock_spins_ = 0;
};

// Moves messages from this connection's output queue onto the server→client
// wire.
class VolanoServerWriter : public VolanoThreadBase {
 public:
  VolanoServerWriter(VolanoWorkload* workload, int user)
      : VolanoThreadBase(workload), user_(user) {}

  Segment NextSegment(Machine& machine, Task& task) override {
    (void)task;
    if (Segment gate; AwaitStartBarrier(&gate)) {
      return gate;
    }
    Segment yield_seg;
    if (TakeYield(&yield_seg)) {
      return yield_seg;
    }
    auto& conn = workload_->connection(user_);
    const int expected = cfg().users_per_room * cfg().messages_per_user;
    switch (phase_) {
      case Phase::kRead: {
        if (!cfg().churn && forwarded_ == expected) {
          return Segment::Exit(cfg().syscall_cycles);
        }
        Message msg;
        const SockStatus st = conn.outq.TryReadMsg(machine, &msg);
        if (st == SockStatus::kWouldBlock) {
          return BlockUntilReadable(cfg().syscall_cycles, conn.outq);
        }
        if (st != SockStatus::kOk) {
          // Output queue torn down (abandon/shutdown): nothing left to pump.
          return Segment::Exit(cfg().syscall_cycles);
        }
        pending_ = msg;
        phase_ = Phase::kForward;
        RollYields();
        return Segment::RunAgain(Jitter(cfg().server_write_cycles));
      }
      case Phase::kForward: {
        const SockStatus st = conn.s2c.TryWriteMsg(machine, pending_);
        if (st == SockStatus::kWouldBlock) {
          return BlockUntilWritable(cfg().syscall_cycles, conn.s2c);
        }
        if (st == SockStatus::kOk) {
          ++forwarded_;
          phase_ = Phase::kRead;
          return Segment::RunAgain(cfg().syscall_cycles);
        }
        // The wire died under this delivery.
        ++workload_->messages_lost_;
        if (st == SockStatus::kClosed) {
          // Torn down for good (abandon or shutdown): stop serving.
          return Segment::Exit(cfg().syscall_cycles);
        }
        // Reset: the client will reconnect; drop the delivery and go back
        // to pumping once the wire leaves the reset state.
        phase_ = Phase::kRead;
        SimSocket* sock = &conn.s2c;
        return Segment::Block(cfg().syscall_cycles, &sock->write_wait(),
                              [sock] { return sock->reset(); });
      }
    }
    __builtin_unreachable();
  }

 private:
  enum class Phase { kRead, kForward };
  int user_;
  Phase phase_ = Phase::kRead;
  int forwarded_ = 0;
  Message pending_;
};

// The client's main thread: opens every connection in sequence, yield-
// polling each handshake (Thread.yield() while the listener works), then
// releases the start barrier. During this ramp it is usually the only
// runnable task in the system.
class VolanoConnector : public VolanoThreadBase {
 public:
  VolanoConnector(VolanoWorkload* workload, Rng rng) : VolanoThreadBase(workload, rng) {}

  Segment NextSegment(Machine& machine, Task& task) override {
    (void)task;
    const int total_users = cfg().rooms * cfg().users_per_room;
    switch (phase_) {
      case Phase::kSendConnect: {
        if (next_user_ == total_users) {
          // Every connection is up: release the chat threads and retire.
          workload_->chat_started_ = true;
          workload_->start_barrier_->WakeAll(machine);
          return Segment::Exit(cfg().syscall_cycles);
        }
        Message syn;
        syn.sender = next_user_;
        if (workload_->accept_queue_->TryWriteMsg(machine, syn) != SockStatus::kOk) {
          return BlockUntilWritable(cfg().syscall_cycles, *workload_->accept_queue_);
        }
        spins_ = 0;
        phase_ = Phase::kAwaitAccept;
        return Segment::RunAgain(cfg().syscall_cycles);
      }
      case Phase::kAwaitAccept: {
        auto& ack = workload_->connection(next_user_).ack;
        Message reply;
        if (ack.TryReadMsg(machine, &reply) != SockStatus::kOk) {
          if (spins_ < cfg().connect_spin_yields) {
            ++spins_;
            return Segment::Yield(cfg().yield_spin_cycles);
          }
          return BlockUntilReadable(cfg().syscall_cycles, ack);
        }
        // Connection up: spawn this user's client threads, move on.
        workload_->SpawnClientThreads(next_user_);
        ++next_user_;
        phase_ = Phase::kSendConnect;
        return Segment::RunAgain(cfg().syscall_cycles);
      }
    }
    __builtin_unreachable();
  }

 private:
  enum class Phase { kSendConnect, kAwaitAccept };
  Phase phase_ = Phase::kSendConnect;
  int next_user_ = 0;
  int spins_ = 0;
};

// The server's listener: accepts each connection, spawns its per-connection
// service threads, acknowledges the client, and exits once every expected
// connection has been accepted.
class VolanoListener : public VolanoThreadBase {
 public:
  VolanoListener(VolanoWorkload* workload, Rng rng) : VolanoThreadBase(workload, rng) {}

  Segment NextSegment(Machine& machine, Task& task) override {
    (void)task;
    const int total_users = cfg().rooms * cfg().users_per_room;
    switch (phase_) {
      case Phase::kAccept: {
        if (accepted_ == total_users) {
          return Segment::Exit(cfg().syscall_cycles);
        }
        Message syn;
        if (workload_->accept_queue_->TryReadMsg(machine, &syn) != SockStatus::kOk) {
          return BlockUntilReadable(cfg().syscall_cycles, *workload_->accept_queue_);
        }
        pending_user_ = syn.sender;
        phase_ = Phase::kSetup;
        return Segment::RunAgain(Jitter(cfg().accept_work_cycles));
      }
      case Phase::kSetup: {
        // Socket/thread setup latency on the server side.
        phase_ = Phase::kFinish;
        return Segment::Sleep(cfg().syscall_cycles, Jitter(cfg().accept_latency_mean));
      }
      case Phase::kFinish: {
        workload_->SpawnServerThreads(pending_user_);
        Message ack;
        ack.sender = pending_user_;
        const bool ok =
            workload_->connection(pending_user_).ack.TryWriteMsg(machine, ack) == SockStatus::kOk;
        ELSC_CHECK_MSG(ok, "volano handshake ack overflow");
        ++accepted_;
        phase_ = Phase::kAccept;
        return Segment::RunAgain(cfg().syscall_cycles);
      }
    }
    __builtin_unreachable();
  }

 private:
  enum class Phase { kAccept, kSetup, kFinish };
  Phase phase_ = Phase::kAccept;
  int pending_user_ = 0;
  int accepted_ = 0;
};

struct VolanoWorkload::ConnectionRecord {
  ConnectionRecord(VolanoWorkload* workload, int user, int room)
      : conn(room, workload->config()),
        server_reader(workload, user),
        server_writer(workload, user),
        client_writer(workload, user),
        client_reader(workload, user) {}

  Connection conn;
  VolanoServerReader server_reader;
  VolanoServerWriter server_writer;
  VolanoClientWriter client_writer;
  VolanoClientReader client_reader;
};

VolanoWorkload::Connection& VolanoWorkload::connection(int user) {
  return connections_[static_cast<size_t>(user)]->conn;
}

VolanoWorkload::VolanoWorkload(Machine& machine, const VolanoConfig& config)
    : machine_(machine), config_(config), rng_(machine.rng().Fork()) {
  ELSC_CHECK(config_.rooms >= 1);
  ELSC_CHECK(config_.users_per_room >= 1);
  ELSC_CHECK(config_.messages_per_user >= 1);
}

VolanoWorkload::~VolanoWorkload() = default;

void VolanoWorkload::Setup() {
  server_mm_ = machine_.CreateMm();
  client_mm_ = machine_.CreateMm();
  accept_queue_ = std::make_unique<SimSocket>(4);
  start_barrier_ = std::make_unique<WaitQueue>();

  const int total_users = config_.rooms * config_.users_per_room;
  room_delivered_.assign(static_cast<size_t>(config_.rooms), 0);
  rooms_.reserve(static_cast<size_t>(config_.rooms));
  for (int room = 0; room < config_.rooms; ++room) {
    auto state = std::make_unique<RoomState>();
    state->lock_wait = std::make_unique<WaitQueue>();
    rooms_.push_back(std::move(state));
  }
  connections_.reserve(static_cast<size_t>(total_users));
  for (int room = 0; room < config_.rooms; ++room) {
    for (int member = 0; member < config_.users_per_room; ++member) {
      auto record = std::make_unique<ConnectionRecord>(this, UserIndex(room, member), room);
      if (config_.churn) {
        // The resilient client's round-trip deadline: a lost echo wakes the
        // writer with a timeout instead of parking it forever.
        record->conn.ack.set_rcv_timeout(config_.ack_timeout);
      }
      connections_.push_back(std::move(record));
    }
  }

  // Only the server listener and the client connector exist at boot; they
  // spawn the per-connection threads as each connection is established,
  // exactly as the real benchmark does.
  listener_ = std::make_unique<VolanoListener>(this, rng_.Fork());
  TaskParams lp;
  lp.name = "server.listener";
  lp.mm = server_mm_;
  lp.behavior = listener_.get();
  machine_.CreateTask(lp);

  connector_ = std::make_unique<VolanoConnector>(this, rng_.Fork());
  TaskParams cp;
  cp.name = "client.main";
  cp.mm = client_mm_;
  cp.behavior = connector_.get();
  machine_.CreateTask(cp);
}

// The order of the workload's forks is simulated state: the server pair
// forks reader then writer at accept, the client pair writer then reader at
// connect.
void VolanoWorkload::SpawnServerThreads(int user) {
  ConnectionRecord& record = *connections_[static_cast<size_t>(user)];
  const std::string base =
      StrFormat("r%d.u%d", record.conn.room, user % config_.users_per_room);
  record.server_reader.set_rng(rng_.Fork());
  record.server_writer.set_rng(rng_.Fork());

  TaskParams params;
  params.mm = server_mm_;
  params.name = base + ".sr";
  params.behavior = &record.server_reader;
  machine_.CreateTask(params);
  params.name = base + ".sw";
  params.behavior = &record.server_writer;
  machine_.CreateTask(params);
}

void VolanoWorkload::SpawnClientThreads(int user) {
  ConnectionRecord& record = *connections_[static_cast<size_t>(user)];
  const std::string base =
      StrFormat("r%d.u%d", record.conn.room, user % config_.users_per_room);
  record.client_writer.set_rng(rng_.Fork());
  record.client_reader.set_rng(rng_.Fork());

  TaskParams params;
  params.mm = client_mm_;
  params.name = base + ".cw";
  params.behavior = &record.client_writer;
  machine_.CreateTask(params);
  params.name = base + ".cr";
  params.behavior = &record.client_reader;
  machine_.CreateTask(params);
}

std::vector<SimSocket*> VolanoWorkload::LifecycleTargets() {
  std::vector<SimSocket*> targets;
  targets.reserve(connections_.size() * 2);
  for (auto& record : connections_) {
    targets.push_back(&record->conn.c2s);
    targets.push_back(&record->conn.s2c);
  }
  return targets;
}

void VolanoWorkload::OnWriterDone(int user, bool abandoned) {
  auto& conn = connection(user);
  // Orderly client-side close: the server reader drains and sees EOF.
  conn.c2s.Close(machine_);
  if (abandoned) {
    // Tear the whole connection down, output queue included — the room must
    // not keep broadcasting into a queue nobody will ever drain again.
    conn.s2c.Close(machine_);
    conn.outq.Close(machine_);
  }
  ++done_writers_;
  const auto total = static_cast<uint64_t>(config_.rooms) * config_.users_per_room;
  if (done_writers_ == total) {
    ShutdownChat();
  }
}

void VolanoWorkload::ShutdownChat() {
  // Every client finished: close the remaining per-connection streams so
  // readers and pumps drain to EOF and exit (Close is idempotent for the
  // connections an abandon already tore down).
  for (auto& record : connections_) {
    record->conn.s2c.Close(machine_);
    record->conn.outq.Close(machine_);
    record->conn.ack.Close(machine_);
  }
}

bool VolanoWorkload::Done() const {
  if (config_.churn) {
    const auto total = static_cast<uint64_t>(config_.rooms) * config_.users_per_room;
    return done_writers_ == total && machine_.live_tasks() == 0;
  }
  return messages_delivered_ == config_.expected_deliveries() && machine_.live_tasks() == 0;
}

VolanoResult VolanoWorkload::Result() const {
  VolanoResult result;
  result.completed = Done();
  result.elapsed_sec = CyclesToSec(machine_.Now());
  result.messages_sent = messages_sent_;
  result.messages_delivered = messages_delivered_;
  result.throughput =
      result.elapsed_sec > 0 ? static_cast<double>(messages_delivered_) / result.elapsed_sec : 0.0;
  result.retries = retries_;
  result.reconnects = reconnects_;
  result.abandons = abandons_;
  uint64_t resets = 0;
  uint64_t discarded = 0;
  for (const auto& record : connections_) {
    // The socket counters are 32-bit: widen before adding.
    const Connection& conn = record->conn;
    resets += uint64_t{conn.c2s.stats().peer_resets} + conn.s2c.stats().peer_resets;
    discarded += uint64_t{conn.c2s.stats().discarded} + conn.s2c.stats().discarded;
  }
  result.resets_seen = resets;
  // Lost = in-flight messages destroyed by resets/reopens plus deliveries
  // skipped or dropped against dead connections.
  result.messages_lost = messages_lost_ + discarded;
  return result;
}

}  // namespace elsc
