// Tests for the simulated loopback sockets: FIFO order, capacity, stats, the
// ring storage (against a std::deque reference model, and its allocation
// count), and full blocking round trips through the Machine (including the
// lost-wakeup regression the still_blocked predicate guards against).

#include "src/net/socket.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/string_util.h"
#include "src/net/backoff.h"
#include "src/net/socket_ops.h"
#include "src/smp/machine.h"

// Counts every global operator new and new[] in this test binary, so the
// allocation tests below can assert exact counts. Each test file links into
// its own executable, so the replacement affects no other test. The array
// forms are replaced too: a sanitizer runtime's own new[] would bypass the
// count.
namespace {
std::atomic<uint64_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
// Out of line, so the compiler never sees free() applied to a pointer it
// watched operator new return (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t /*size*/) noexcept { ::operator delete(p); }

namespace elsc {
namespace {

uint64_t HeapAllocations() { return g_heap_allocations.load(std::memory_order_relaxed); }

class NullWaker : public Waker {
 public:
  void WakeUpProcess(Task* task) override { (void)task; }
};

TEST(SimSocketTest, FifoOrder) {
  SimSocket sock("s", 10);
  NullWaker waker;
  for (uint64_t i = 0; i < 5; ++i) {
    Message m;
    m.id = i;
    EXPECT_TRUE(sock.TryWrite(waker, m));
  }
  for (uint64_t i = 0; i < 5; ++i) {
    auto m = sock.TryRead(waker);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->id, i);
  }
  EXPECT_FALSE(sock.TryRead(waker).has_value());
}

TEST(SimSocketTest, CapacityEnforced) {
  SimSocket sock("s", 2);
  NullWaker waker;
  Message m;
  EXPECT_TRUE(sock.TryWrite(waker, m));
  EXPECT_TRUE(sock.TryWrite(waker, m));
  EXPECT_FALSE(sock.TryWrite(waker, m));
  EXPECT_FALSE(sock.CanWrite());
  sock.TryRead(waker);
  EXPECT_TRUE(sock.CanWrite());
}

TEST(SimSocketTest, StatsTrackOperations) {
  SimSocket sock("s", 1);
  NullWaker waker;
  Message m;
  sock.TryWrite(waker, m);
  sock.TryWrite(waker, m);  // Blocked.
  sock.TryRead(waker);
  sock.TryRead(waker);  // Blocked.
  EXPECT_EQ(sock.stats().writes, 1u);
  EXPECT_EQ(sock.stats().write_blocks, 1u);
  EXPECT_EQ(sock.stats().reads, 1u);
  EXPECT_EQ(sock.stats().read_blocks, 1u);
  EXPECT_EQ(sock.stats().max_depth, 1u);
}

TEST(SimSocketTest, RejectsZeroCapacity) {
  EXPECT_DEATH(SimSocket("zero", 0), "capacity >= 1");
}

TEST(SimSocketTest, RejectsCapacityAbove32Bits) {
  // The ring fields are 32-bit; the check runs before the ring is allocated.
  EXPECT_DEATH(SimSocket(size_t{UINT32_MAX} + 1), "capacity <= UINT32_MAX");
}

// ---------------------------------------------------------------------------
// Ring storage: differential test against a std::deque reference model, and
// the allocation budget the ring exists for.
// ---------------------------------------------------------------------------

// The socket's queue semantics restated on a std::deque: what the ring must
// reproduce operation for operation.
class ReferenceSocket {
 public:
  explicit ReferenceSocket(size_t capacity) : capacity_(capacity) {}

  SockStatus Write(const Message& msg) {
    if (state_ == SocketState::kClosed) {
      return SockStatus::kClosed;
    }
    if (state_ == SocketState::kReset) {
      return SockStatus::kReset;
    }
    const size_t effective = throttled_ && capacity_ > 1 ? 1 : capacity_;
    if (queue_.size() >= effective) {
      return SockStatus::kWouldBlock;
    }
    queue_.push_back(msg);
    ++writes;
    max_depth = std::max<uint64_t>(max_depth, queue_.size());
    return SockStatus::kOk;
  }
  SockStatus Read(Message* out) {
    if (state_ == SocketState::kReset) {
      return SockStatus::kReset;
    }
    if (queue_.empty()) {
      return state_ == SocketState::kOpen ? SockStatus::kWouldBlock : SockStatus::kEof;
    }
    *out = queue_.front();
    queue_.pop_front();
    ++reads;
    return SockStatus::kOk;
  }
  void Close() { state_ = SocketState::kClosed; }
  void ResetByPeer() {
    if (state_ != SocketState::kReset && state_ != SocketState::kClosed) {
      Discard();
      state_ = SocketState::kReset;
    }
  }
  void HalfOpenPeer() {
    if (state_ == SocketState::kOpen) {
      state_ = SocketState::kHalfOpen;
    }
  }
  void Reopen() {
    if (state_ != SocketState::kOpen || !queue_.empty()) {
      Discard();
      state_ = SocketState::kOpen;
    }
  }
  void SetThrottled(bool throttled) { throttled_ = throttled; }

  size_t depth() const { return queue_.size(); }
  SocketState state() const { return state_; }

  uint64_t writes = 0;
  uint64_t reads = 0;
  uint64_t max_depth = 0;
  uint64_t discarded = 0;

 private:
  void Discard() {
    discarded += queue_.size();
    queue_.clear();
  }

  size_t capacity_;
  std::deque<Message> queue_;
  SocketState state_ = SocketState::kOpen;
  bool throttled_ = false;
};

// Runs `steps` seeded random operations on a SimSocket and the reference
// model side by side. Returns "" when they agree after every operation, else
// a one-line repro naming the capacity, seed, step, operation and mismatch.
std::string RunRingDifferential(size_t capacity, uint64_t seed, int steps) {
  static const char* const kOps[] = {"write", "read", "close", "reset",
                                     "half_open", "reopen", "throttle"};
  NullWaker waker;
  SimSocket sock("diff", capacity);
  ReferenceSocket ref(capacity);
  Rng rng(seed);
  uint64_t write_bias = 50;  // Percent of queue ops that write; re-drawn in phases.
  uint64_t next_id = 1;
  for (int step = 0; step < steps; ++step) {
    if (step % 64 == 0) {
      // Long fill and drain phases, so deep rings reach full and wrap.
      write_bias = 10 + 20 * rng.NextBelow(5);
    }
    const uint64_t roll = rng.NextBelow(100);
    int op = 0;
    if (roll < 94) {
      op = rng.NextBelow(100) < write_bias ? 0 : 1;
    } else {
      op = 2 + static_cast<int>(rng.NextBelow(5));
    }
    std::string mismatch;
    switch (op) {
      case 0: {
        Message msg;
        msg.id = next_id++;
        msg.payload = rng.Next();
        const SockStatus got = sock.TryWriteMsg(waker, msg);
        const SockStatus want = ref.Write(msg);
        if (got != want) {
          mismatch = StrFormat("status %s != reference %s", SockStatusName(got),
                               SockStatusName(want));
        }
        break;
      }
      case 1: {
        Message got_msg;
        Message want_msg;
        const SockStatus got = sock.TryReadMsg(waker, &got_msg);
        const SockStatus want = ref.Read(&want_msg);
        if (got != want) {
          mismatch = StrFormat("status %s != reference %s", SockStatusName(got),
                               SockStatusName(want));
        } else if (got == SockStatus::kOk &&
                   (got_msg.id != want_msg.id || got_msg.payload != want_msg.payload)) {
          mismatch = StrFormat("read message %llu != reference %llu",
                               static_cast<unsigned long long>(got_msg.id),
                               static_cast<unsigned long long>(want_msg.id));
        }
        break;
      }
      case 2:
        sock.Close(waker);
        ref.Close();
        break;
      case 3:
        sock.ResetByPeer(waker);
        ref.ResetByPeer();
        break;
      case 4:
        sock.HalfOpenPeer(waker);
        ref.HalfOpenPeer();
        break;
      case 5:
        sock.Reopen(waker);
        ref.Reopen();
        break;
      case 6: {
        const bool throttled = !sock.throttled();
        sock.SetThrottled(waker, throttled);
        ref.SetThrottled(throttled);
        break;
      }
    }
    const SocketStats& st = sock.stats();
    if (mismatch.empty() && sock.depth() != ref.depth()) {
      mismatch = StrFormat("depth %zu != reference %zu", sock.depth(), ref.depth());
    }
    if (mismatch.empty() && sock.state() != ref.state()) {
      mismatch = "state differs from reference";
    }
    if (mismatch.empty() && (st.writes != ref.writes || st.reads != ref.reads ||
                             st.max_depth != ref.max_depth || st.discarded != ref.discarded)) {
      mismatch = StrFormat(
          "stats writes/reads/max_depth/discarded %llu/%llu/%llu/%llu != reference "
          "%llu/%llu/%llu/%llu",
          static_cast<unsigned long long>(st.writes), static_cast<unsigned long long>(st.reads),
          static_cast<unsigned long long>(st.max_depth),
          static_cast<unsigned long long>(st.discarded),
          static_cast<unsigned long long>(ref.writes), static_cast<unsigned long long>(ref.reads),
          static_cast<unsigned long long>(ref.max_depth),
          static_cast<unsigned long long>(ref.discarded));
    }
    if (!mismatch.empty()) {
      return StrFormat("repro: RunRingDifferential(capacity=%zu, seed=%llu) step %d op %s: %s",
                       capacity, static_cast<unsigned long long>(seed), step, kOps[op],
                       mismatch.c_str());
    }
  }
  return "";
}

TEST(SocketRingTest, MatchesDequeReferenceModel) {
  for (const size_t capacity : {1, 2, 3, 4, 64, 128}) {
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      const std::string failure = RunRingDifferential(capacity, seed, 2000);
      ASSERT_EQ(failure, "");
    }
  }
}

TEST(SocketRingTest, ConstructionAllocatesOnlyTheRing) {
  // Names of up to 15 characters live in std::string's inline buffer (the
  // Volano names such as "r123.u12.outq" do), so the ring is the only block.
  for (const char* name : {"r123.u12.outq", "fifteen.chars.x"}) {
    ASSERT_LE(std::strlen(name), 15u);
    const uint64_t before = HeapAllocations();
    SimSocket sock(name, 4);
    const uint64_t allocations = HeapAllocations() - before;
    EXPECT_EQ(allocations, 1u) << name;
  }
}

TEST(SocketRingTest, RoundTripsAndTransitionsNeverAllocate) {
  NullWaker waker;
  SimSocket sock("wrap", 3);
  Message msg;
  Message out;
  int failures = 0;
  const uint64_t before = HeapAllocations();
  // Keep two messages queued while cycling ten more through a 3-slot ring:
  // head and tail wrap several times.
  for (uint64_t i = 0; i < 12; ++i) {
    msg.id = i;
    failures += sock.TryWriteMsg(waker, msg) != SockStatus::kOk;
    if (i >= 2) {
      failures += sock.TryReadMsg(waker, &out) != SockStatus::kOk || out.id != i - 2;
    }
  }
  sock.ResetByPeer(waker);
  sock.Reopen(waker);
  failures += sock.TryWriteMsg(waker, msg) != SockStatus::kOk;
  sock.Close(waker);
  failures += sock.TryReadMsg(waker, &out) != SockStatus::kOk;
  const uint64_t allocations = HeapAllocations() - before;
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(allocations, 0u);
}

// A producer writing N messages and a consumer reading them, with a socket
// small enough that both block repeatedly.
class ProducerBehavior : public TaskBehavior {
 public:
  ProducerBehavior(SimSocket* sock, int count) : sock_(sock), remaining_(count) {}
  Segment NextSegment(Machine& machine, Task& task) override {
    (void)task;
    if (remaining_ == 0) {
      return Segment::Exit(UsToCycles(1));
    }
    Message m;
    m.id = static_cast<uint64_t>(remaining_);
    if (!sock_->TryWrite(machine, m)) {
      return BlockUntilWritable(UsToCycles(2), *sock_);
    }
    --remaining_;
    return Segment::RunAgain(UsToCycles(10));
  }

 private:
  SimSocket* sock_;
  int remaining_;
};

class ConsumerBehavior : public TaskBehavior {
 public:
  ConsumerBehavior(SimSocket* sock, int count) : sock_(sock), expected_(count) {}
  Segment NextSegment(Machine& machine, Task& task) override {
    (void)task;
    if (received_ == expected_) {
      return Segment::Exit(UsToCycles(1));
    }
    if (!sock_->TryRead(machine).has_value()) {
      return BlockUntilReadable(UsToCycles(2), *sock_);
    }
    ++received_;
    return Segment::RunAgain(UsToCycles(25));  // Slower than the producer.
  }
  int received() const { return received_; }

 private:
  SimSocket* sock_;
  int expected_;
  int received_ = 0;
};

class SocketMachineTest : public ::testing::TestWithParam<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SocketMachineTest,
                         ::testing::ValuesIn(AllSchedulerKinds()),
                         [](const auto& info) { return SchedulerKindName(info.param); });

TEST_P(SocketMachineTest, ProducerConsumerRoundTripUp) {
  MachineConfig config;
  config.num_cpus = 1;
  config.smp = false;
  config.scheduler = GetParam();
  config.check_invariants = true;
  Machine machine(config);
  SimSocket sock("pipe", 2);
  ProducerBehavior producer(&sock, 500);
  ConsumerBehavior consumer(&sock, 500);
  TaskParams params;
  params.behavior = &producer;
  params.name = "producer";
  machine.CreateTask(params);
  params.behavior = &consumer;
  params.name = "consumer";
  machine.CreateTask(params);
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(30)));
  EXPECT_EQ(consumer.received(), 500);
  EXPECT_EQ(sock.stats().writes, 500u);
  EXPECT_EQ(sock.stats().reads, 500u);
}

TEST_P(SocketMachineTest, ProducerConsumerRoundTripSmp) {
  // On SMP the producer and consumer overlap in real simultaneity; the
  // still_blocked predicate is what prevents lost wake-ups in the window
  // between a failed TryRead/TryWrite and the sleep taking effect.
  MachineConfig config;
  config.num_cpus = 2;
  config.smp = true;
  config.scheduler = GetParam();
  config.check_invariants = true;
  Machine machine(config);
  SimSocket sock("pipe", 1);  // Tightest capacity = most racy.
  ProducerBehavior producer(&sock, 1000);
  ConsumerBehavior consumer(&sock, 1000);
  TaskParams params;
  params.behavior = &producer;
  machine.CreateTask(params);
  params.behavior = &consumer;
  machine.CreateTask(params);
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(60)));
  EXPECT_EQ(consumer.received(), 1000);
}

// SO_RCVTIMEO analog: a reader on an empty socket with a receive timeout
// wakes with block_timed_out set, observes it via ConsumeReadTimeout, and
// retries the read — so a late writer still completes the exchange (the
// EINTR-style retry loop) while the socket counts every expired deadline.
class TimedReaderBehavior : public TaskBehavior {
 public:
  explicit TimedReaderBehavior(SimSocket* sock) : sock_(sock) {}
  Segment NextSegment(Machine& machine, Task& task) override {
    if (ConsumeReadTimeout(task, *sock_)) {
      ++timeouts_seen_;
    }
    if (sock_->TryRead(machine).has_value()) {
      got_message_ = true;
      return Segment::Exit(UsToCycles(1));
    }
    return BlockUntilReadable(UsToCycles(2), *sock_);
  }
  int timeouts_seen() const { return timeouts_seen_; }
  bool got_message() const { return got_message_; }

 private:
  SimSocket* sock_;
  int timeouts_seen_ = 0;
  bool got_message_ = false;
};

// Writes a single message after an initial sleep (so the CPU stays free for
// the reader's timeout wake-ups in the meantime), then exits.
class LateWriterBehavior : public TaskBehavior {
 public:
  LateWriterBehavior(SimSocket* sock, Cycles delay) : sock_(sock), delay_(delay) {}
  Segment NextSegment(Machine& machine, Task& task) override {
    (void)task;
    if (!delayed_) {
      delayed_ = true;
      return Segment::Sleep(UsToCycles(1), delay_);
    }
    Message m;
    m.id = 99;
    EXPECT_TRUE(sock_->TryWrite(machine, m));
    return Segment::Exit(UsToCycles(1));
  }

 private:
  SimSocket* sock_;
  Cycles delay_;
  bool delayed_ = false;
};

TEST(SocketTimeoutTest, ReadTimeoutWakesBlockedReaderWhoRetries) {
  MachineConfig config;
  config.num_cpus = 1;
  config.smp = false;
  config.check_invariants = true;
  Machine machine(config);
  SimSocket sock("timed", 2);
  sock.set_rcv_timeout(MsToCycles(5));
  TimedReaderBehavior reader(&sock);
  LateWriterBehavior writer(&sock, MsToCycles(40));
  TaskParams params;
  params.behavior = &reader;
  params.name = "reader";
  machine.CreateTask(params);
  params.behavior = &writer;
  params.name = "writer";
  machine.CreateTask(params);
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(10)));
  // ~40ms of emptiness at a 5ms receive deadline: several timeouts, then the
  // late message still lands.
  EXPECT_TRUE(reader.got_message());
  EXPECT_GE(reader.timeouts_seen(), 3);
  EXPECT_EQ(sock.stats().read_timeouts,
            static_cast<uint64_t>(reader.timeouts_seen()));
  EXPECT_EQ(sock.stats().reads, 1u);
}

TEST(SocketTimeoutTest, ReadWithoutTimeoutNeverSetsTheFlag) {
  MachineConfig config;
  config.num_cpus = 1;
  config.smp = false;
  config.check_invariants = true;
  Machine machine(config);
  SimSocket sock("untimed", 2);  // rcv_timeout stays 0: blocks indefinitely.
  TimedReaderBehavior reader(&sock);
  LateWriterBehavior writer(&sock, MsToCycles(40));
  TaskParams params;
  params.behavior = &reader;
  machine.CreateTask(params);
  params.behavior = &writer;
  machine.CreateTask(params);
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(10)));
  EXPECT_TRUE(reader.got_message());
  EXPECT_EQ(reader.timeouts_seen(), 0);
  EXPECT_EQ(sock.stats().read_timeouts, 0u);
}

// SO_SNDTIMEO analog: a writer facing a full queue with a send timeout gives
// up after a bounded number of expired deadlines instead of hanging forever.
class GiveUpWriterBehavior : public TaskBehavior {
 public:
  explicit GiveUpWriterBehavior(SimSocket* sock) : sock_(sock) {}
  Segment NextSegment(Machine& machine, Task& task) override {
    if (ConsumeWriteTimeout(task, *sock_)) {
      ++timeouts_seen_;
      if (timeouts_seen_ >= 3) {
        gave_up_ = true;  // The ETIMEDOUT error path.
        return Segment::Exit(UsToCycles(1));
      }
    }
    Message m;
    if (sock_->TryWrite(machine, m)) {
      return Segment::Exit(UsToCycles(1));
    }
    return BlockUntilWritable(UsToCycles(2), *sock_);
  }
  int timeouts_seen() const { return timeouts_seen_; }
  bool gave_up() const { return gave_up_; }

 private:
  SimSocket* sock_;
  int timeouts_seen_ = 0;
  bool gave_up_ = false;
};

TEST(SocketTimeoutTest, WriteTimeoutLetsFullQueueWriterGiveUp) {
  MachineConfig config;
  config.num_cpus = 1;
  config.smp = false;
  config.check_invariants = true;
  Machine machine(config);
  NullWaker waker;
  SimSocket sock("full", 1);
  sock.set_snd_timeout(MsToCycles(5));
  Message m;
  ASSERT_TRUE(sock.TryWrite(waker, m));  // Fill the queue; nobody drains it.
  GiveUpWriterBehavior writer(&sock);
  TaskParams params;
  params.behavior = &writer;
  params.name = "writer";
  machine.CreateTask(params);
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(10)));
  EXPECT_TRUE(writer.gave_up());
  EXPECT_EQ(writer.timeouts_seen(), 3);
  EXPECT_EQ(sock.stats().write_timeouts, 3u);
}

// ---------------------------------------------------------------------------
// Connection lifecycle: Close / ResetByPeer / HalfOpenPeer / Reopen.
// ---------------------------------------------------------------------------

TEST(SocketLifecycleTest, EofOnlyAfterQueueDrains) {
  // FIN semantics: Close() stops new writes immediately, but queued data is
  // still delivered; readers see kEof only once the queue is empty.
  SimSocket sock("fin", 4);
  NullWaker waker;
  Message m;
  m.id = 1;
  ASSERT_EQ(sock.TryWriteMsg(waker, m), SockStatus::kOk);
  m.id = 2;
  ASSERT_EQ(sock.TryWriteMsg(waker, m), SockStatus::kOk);
  sock.Close(waker);
  EXPECT_EQ(sock.TryWriteMsg(waker, m), SockStatus::kClosed);
  Message got;
  EXPECT_EQ(sock.TryReadMsg(waker, &got), SockStatus::kOk);
  EXPECT_EQ(got.id, 1u);
  EXPECT_EQ(sock.TryReadMsg(waker, &got), SockStatus::kOk);
  EXPECT_EQ(got.id, 2u);
  EXPECT_EQ(sock.TryReadMsg(waker, &got), SockStatus::kEof);
  EXPECT_EQ(sock.TryReadMsg(waker, &got), SockStatus::kEof);
  EXPECT_EQ(sock.stats().reads, 2u);
  EXPECT_EQ(sock.stats().read_eofs, 2u);
  EXPECT_EQ(sock.stats().write_closed, 1u);
}

TEST(SocketLifecycleTest, DoubleCloseIsIdempotent) {
  SimSocket sock("c", 2);
  NullWaker waker;
  sock.Close(waker);
  sock.Close(waker);
  sock.Close(waker);
  EXPECT_EQ(sock.state(), SocketState::kClosed);
  EXPECT_EQ(sock.stats().closes, 1u);
}

TEST(SocketLifecycleTest, ResetDiscardsQueuedDataImmediately) {
  // RST semantics: unlike Close, a reset destroys queued data — readers see
  // kReset at once, never the lost messages, and the loss is accounted.
  SimSocket sock("rst", 4);
  NullWaker waker;
  Message m;
  ASSERT_EQ(sock.TryWriteMsg(waker, m), SockStatus::kOk);
  ASSERT_EQ(sock.TryWriteMsg(waker, m), SockStatus::kOk);
  sock.ResetByPeer(waker);
  Message got;
  EXPECT_EQ(sock.TryReadMsg(waker, &got), SockStatus::kReset);
  EXPECT_EQ(sock.TryWriteMsg(waker, m), SockStatus::kReset);
  EXPECT_EQ(sock.state(), SocketState::kReset);
  EXPECT_EQ(sock.stats().peer_resets, 1u);
  EXPECT_EQ(sock.stats().discarded, 2u);
  EXPECT_EQ(sock.stats().read_resets, 1u);
  EXPECT_EQ(sock.stats().write_resets, 1u);
}

TEST(SocketLifecycleTest, HalfOpenPeerReadsDrainToEofWhileWritesProceed) {
  // Peer sent FIN: our reads drain then EOF, but our direction stays open.
  SimSocket sock("ho", 2);
  NullWaker waker;
  Message m;
  ASSERT_EQ(sock.TryWriteMsg(waker, m), SockStatus::kOk);
  sock.HalfOpenPeer(waker);
  EXPECT_EQ(sock.state(), SocketState::kHalfOpen);
  EXPECT_EQ(sock.TryWriteMsg(waker, m), SockStatus::kOk);  // Our side open.
  Message got;
  EXPECT_EQ(sock.TryReadMsg(waker, &got), SockStatus::kOk);
  EXPECT_EQ(sock.TryReadMsg(waker, &got), SockStatus::kOk);
  EXPECT_EQ(sock.TryReadMsg(waker, &got), SockStatus::kEof);
  EXPECT_EQ(sock.stats().half_opens, 1u);
}

TEST(SocketLifecycleTest, ReopenRestoresService) {
  SimSocket sock("re", 2);
  NullWaker waker;
  Message m;
  ASSERT_EQ(sock.TryWriteMsg(waker, m), SockStatus::kOk);
  sock.ResetByPeer(waker);
  sock.Reopen(waker);
  EXPECT_EQ(sock.state(), SocketState::kOpen);
  EXPECT_EQ(sock.stats().reopens, 1u);
  EXPECT_EQ(sock.TryWriteMsg(waker, m), SockStatus::kOk);
  Message got;
  EXPECT_EQ(sock.TryReadMsg(waker, &got), SockStatus::kOk);
  // Reopening an already-open, empty socket is a no-op.
  sock.Reopen(waker);
  EXPECT_EQ(sock.stats().reopens, 1u);
}

TEST(SocketLifecycleTest, ThrottleShrinksEffectiveCapacity) {
  SimSocket sock("slow", 4);
  NullWaker waker;
  Message m;
  sock.SetThrottled(waker, true);
  EXPECT_EQ(sock.TryWriteMsg(waker, m), SockStatus::kOk);
  EXPECT_EQ(sock.TryWriteMsg(waker, m), SockStatus::kWouldBlock);
  sock.SetThrottled(waker, false);
  EXPECT_EQ(sock.TryWriteMsg(waker, m), SockStatus::kOk);
}

TEST(SocketLifecycleTest, BackoffDelayIsDeterministicAndBounded) {
  BackoffPolicy policy;
  for (int attempt = 1; attempt <= policy.max_retries; ++attempt) {
    const Cycles d1 = policy.Delay(17, attempt);
    const Cycles d2 = policy.Delay(17, attempt);
    EXPECT_EQ(d1, d2);  // Pure function of (key, attempt).
    EXPECT_GE(d1, policy.base);
    EXPECT_LE(d1, policy.max);
    EXPECT_FALSE(policy.ShouldAbandon(attempt));
  }
  EXPECT_TRUE(policy.ShouldAbandon(policy.max_retries + 1));
  // Different keys decorrelate (reconnect storms spread out).
  EXPECT_NE(policy.Delay(1, 4), policy.Delay(2, 4));
}

// A reader that drains until the connection dies, recording how it died.
class LifecycleReaderBehavior : public TaskBehavior {
 public:
  explicit LifecycleReaderBehavior(SimSocket* sock) : sock_(sock) {}
  Segment NextSegment(Machine& machine, Task& task) override {
    (void)task;
    Message m;
    const SockStatus st = sock_->TryReadMsg(machine, &m);
    if (st == SockStatus::kOk) {
      ++received_;
      return Segment::RunAgain(UsToCycles(5));
    }
    if (st == SockStatus::kWouldBlock) {
      return BlockUntilReadable(UsToCycles(2), *sock_);
    }
    outcome_ = st;
    return Segment::Exit(UsToCycles(1));
  }
  SockStatus outcome() const { return outcome_; }
  int received() const { return received_; }

 private:
  SimSocket* sock_;
  SockStatus outcome_ = SockStatus::kOk;
  int received_ = 0;
};

// A writer that pushes until the connection dies, recording how it died.
class LifecycleWriterBehavior : public TaskBehavior {
 public:
  explicit LifecycleWriterBehavior(SimSocket* sock) : sock_(sock) {}
  Segment NextSegment(Machine& machine, Task& task) override {
    (void)task;
    Message m;
    const SockStatus st = sock_->TryWriteMsg(machine, m);
    if (st == SockStatus::kOk) {
      ++written_;
      return Segment::RunAgain(UsToCycles(5));
    }
    if (st == SockStatus::kWouldBlock) {
      return BlockUntilWritable(UsToCycles(2), *sock_);
    }
    outcome_ = st;
    return Segment::Exit(UsToCycles(1));
  }
  SockStatus outcome() const { return outcome_; }

 private:
  SimSocket* sock_;
  SockStatus outcome_ = SockStatus::kOk;
  int written_ = 0;
};

class SocketLifecycleMachineTest : public ::testing::TestWithParam<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SocketLifecycleMachineTest,
                         ::testing::ValuesIn(AllSchedulerKinds()),
                         [](const auto& info) { return SchedulerKindName(info.param); });

TEST_P(SocketLifecycleMachineTest, CloseWakesEveryBlockedReader) {
  // Several readers parked on an empty socket; Close() must wake them ALL —
  // a WakeOne here would leave the rest sleeping forever (the test would
  // then fail RunUntilAllExited).
  MachineConfig config;
  config.num_cpus = 2;
  config.smp = true;
  config.scheduler = GetParam();
  config.check_invariants = true;
  Machine machine(config);
  SimSocket sock("doomed", 4);
  std::vector<std::unique_ptr<LifecycleReaderBehavior>> readers;
  for (int i = 0; i < 5; ++i) {
    readers.push_back(std::make_unique<LifecycleReaderBehavior>(&sock));
    TaskParams params;
    params.behavior = readers.back().get();
    machine.CreateTask(params);
  }
  machine.engine().ScheduleAfter(MsToCycles(5), [&] { sock.Close(machine); });
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(10)));
  for (const auto& reader : readers) {
    EXPECT_EQ(reader->outcome(), SockStatus::kEof);
    EXPECT_EQ(reader->received(), 0);
  }
  EXPECT_EQ(sock.stats().read_eofs, 5u);
}

TEST_P(SocketLifecycleMachineTest, CloseWakesEveryBlockedWriter) {
  // Several writers parked on a full socket nobody drains; Close() wakes
  // them all and their retried writes observe kClosed (EPIPE analog).
  MachineConfig config;
  config.num_cpus = 2;
  config.smp = true;
  config.scheduler = GetParam();
  config.check_invariants = true;
  Machine machine(config);
  NullWaker null_waker;
  SimSocket sock("full", 1);
  Message m;
  ASSERT_EQ(sock.TryWriteMsg(null_waker, m), SockStatus::kOk);  // Fill it.
  std::vector<std::unique_ptr<LifecycleWriterBehavior>> writers;
  for (int i = 0; i < 5; ++i) {
    writers.push_back(std::make_unique<LifecycleWriterBehavior>(&sock));
    TaskParams params;
    params.behavior = writers.back().get();
    machine.CreateTask(params);
  }
  machine.engine().ScheduleAfter(MsToCycles(5), [&] { sock.Close(machine); });
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(10)));
  for (const auto& writer : writers) {
    EXPECT_EQ(writer->outcome(), SockStatus::kClosed);
  }
  EXPECT_EQ(sock.stats().write_closed, 5u);
}

TEST_P(SocketLifecycleMachineTest, ResetWakesBlockedReadersAndWriters) {
  // Readers starved on one wire, writers wedged on another; one reset event
  // unblocks every one of them with the ECONNRESET-analog outcome.
  MachineConfig config;
  config.num_cpus = 2;
  config.smp = true;
  config.scheduler = GetParam();
  config.check_invariants = true;
  Machine machine(config);
  NullWaker null_waker;
  SimSocket empty_sock("starved", 2);
  SimSocket full_sock("wedged", 1);
  Message m;
  ASSERT_EQ(full_sock.TryWriteMsg(null_waker, m), SockStatus::kOk);
  std::vector<std::unique_ptr<LifecycleReaderBehavior>> readers;
  std::vector<std::unique_ptr<LifecycleWriterBehavior>> writers;
  for (int i = 0; i < 3; ++i) {
    readers.push_back(std::make_unique<LifecycleReaderBehavior>(&empty_sock));
    TaskParams params;
    params.behavior = readers.back().get();
    machine.CreateTask(params);
    writers.push_back(std::make_unique<LifecycleWriterBehavior>(&full_sock));
    params.behavior = writers.back().get();
    machine.CreateTask(params);
  }
  machine.engine().ScheduleAfter(MsToCycles(5), [&] {
    empty_sock.ResetByPeer(machine);
    full_sock.ResetByPeer(machine);
  });
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(10)));
  for (const auto& reader : readers) {
    EXPECT_EQ(reader->outcome(), SockStatus::kReset);
  }
  for (const auto& writer : writers) {
    EXPECT_EQ(writer->outcome(), SockStatus::kReset);
  }
  EXPECT_EQ(full_sock.stats().discarded, 1u);  // The prefill died with it.
}

TEST_P(SocketMachineTest, ManyProducersOneConsumer) {
  MachineConfig config;
  config.num_cpus = 2;
  config.smp = true;
  config.scheduler = GetParam();
  Machine machine(config);
  SimSocket sock("funnel", 4);
  std::vector<std::unique_ptr<ProducerBehavior>> producers;
  for (int i = 0; i < 8; ++i) {
    producers.push_back(std::make_unique<ProducerBehavior>(&sock, 100));
    TaskParams params;
    params.behavior = producers.back().get();
    machine.CreateTask(params);
  }
  ConsumerBehavior consumer(&sock, 800);
  TaskParams params;
  params.behavior = &consumer;
  machine.CreateTask(params);
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(60)));
  EXPECT_EQ(consumer.received(), 800);
}

}  // namespace
}  // namespace elsc
