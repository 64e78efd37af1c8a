// Simulated loopback sockets.
//
// A SimSocket is a bounded FIFO of messages with blocking semantics built on
// wait queues: readers block when the queue is empty, writers when it is
// full. Storage is a ring allocated once, at construction, at exactly
// `capacity` entries; no read, write or lifecycle transition allocates. A
// socket carries no name: a federation holds four per connection, so its
// size is per-connection memory. VolanoMark's loopback-mode connections
// (paper §4/§6) are modeled as pairs of these — the benchmark's defining
// property is that every message exchange forces task blocking and wake-ups
// through the scheduler, and that is exactly what these queues produce.
//
// Behaviors use the non-blocking TryRead/TryWrite plus the standard re-check
// idiom: on failure, return a kBlock segment on the corresponding wait queue
// and retry when woken.
//
// Connection lifecycle (the overload-resilience layer): a socket is born
// kOpen and can transition to
//
//   kHalfOpen  — the peer's reading side died silently (HalfOpenPeer()).
//                Reads drain the queue, then observe EOF; writes still land
//                until the queue fills and then block forever — exactly the
//                TCP half-open pathology a send timeout exists to catch.
//   kClosed    — orderly shutdown (Close()). Reads drain, then observe EOF;
//                writes fail immediately (the EPIPE analog).
//   kReset     — connection reset by peer (ResetByPeer()). Queued messages
//                are destroyed, reads and writes both fail immediately (the
//                ECONNRESET analog).
//
// Every transition wakes ALL sleepers on both wait queues so blocked readers
// and writers re-run their non-blocking op and observe the error through the
// TryReadMsg/TryWriteMsg outcome — the same re-check idiom that already
// guards against lost wake-ups. Reopen() returns a socket to kOpen (the
// reconnect analog used by churn-capable clients). All states are counted
// per cause in SocketStats so drops are attributable.

#ifndef SRC_NET_SOCKET_H_
#define SRC_NET_SOCKET_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "src/base/time_units.h"
#include "src/kernel/wait_queue.h"

namespace elsc {

struct Message {
  uint64_t id = 0;
  int sender = -1;    // Originating user/connection id (workload-defined).
  int room = -1;      // Room id for chat workloads.
  Cycles sent_at = 0; // Simulated send time, for latency accounting.
  uint64_t payload = 0;
};

// Connection lifecycle state; see the file comment for transition semantics.
enum class SocketState : uint8_t {
  kOpen,
  kHalfOpen,  // Peer reader died: reads EOF after drain, writes never drain.
  kClosed,    // Orderly shutdown: reads EOF after drain, writes fail (EPIPE).
  kReset,     // Reset by peer: queue destroyed, reads/writes fail (ECONNRESET).
};

// Outcome of a non-blocking socket operation. kWouldBlock is the only
// retry-after-sleep outcome; the rest are terminal connection errors a
// resilient client maps to its retry/abandon policy.
enum class SockStatus {
  kOk,
  kWouldBlock,  // EAGAIN: empty (read) or full (write) — block and retry.
  kEof,         // Read side: orderly end of stream after drain.
  kClosed,      // Write side: socket closed (EPIPE analog).
  kReset,       // Either side: connection reset (ECONNRESET analog).
};

const char* SockStatusName(SockStatus status);

// The six operation counters are 64-bit: they move on every read, write and
// block. The rest are 32-bit: max_depth never exceeds the capacity, and
// the lifecycle and failure counters move only on a transition or a failed
// operation, so they stay zero unless connection chaos is on; an increment
// that would wrap one fails an ELSC_CHECK instead.
struct SocketStats {
  uint64_t writes = 0;
  uint64_t reads = 0;
  uint64_t write_blocks = 0;   // TryWrite failures (queue full).
  uint64_t read_blocks = 0;    // TryRead failures (queue empty).
  uint64_t read_timeouts = 0;  // Timed blocks on read_wait that expired.
  uint64_t write_timeouts = 0; // Timed blocks on write_wait that expired.
  uint32_t max_depth = 0;
  // Lifecycle transitions (at most one close/half-open per life, but a
  // reopened socket can accumulate several of each).
  uint32_t closes = 0;       // Close() transitions.
  uint32_t peer_resets = 0;  // ResetByPeer() transitions.
  uint32_t half_opens = 0;   // HalfOpenPeer() transitions.
  uint32_t reopens = 0;      // Reopen() transitions (reconnects).
  // Per-cause operation failures (the EOF/EPIPE/ECONNRESET observations).
  uint32_t read_eofs = 0;      // Reads that observed end-of-stream.
  uint32_t read_resets = 0;    // Reads that failed with connection-reset.
  uint32_t write_closed = 0;   // Writes that failed on a closed socket.
  uint32_t write_resets = 0;   // Writes that failed with connection-reset.
  // Messages destroyed by ResetByPeer()/Reopen() queue teardown — queued
  // data that was accepted but never delivered (drop-by-reset accounting).
  uint32_t discarded = 0;
};

class SimSocket {
 public:
  // `capacity` in [1, UINT32_MAX] is fixed for the socket's life;
  // throttling only lowers the effective capacity.
  explicit SimSocket(size_t capacity);
  // Ignores the name. It exists only for the benchmark's probes, and goes
  // with the name argument there in a benchmark-only change (ROADMAP item 8).
  SimSocket(std::string_view /*name*/, size_t capacity) : SimSocket(capacity) {}

  SimSocket(const SimSocket&) = delete;
  SimSocket& operator=(const SimSocket&) = delete;

  size_t capacity() const { return capacity_; }
  size_t depth() const { return size_; }
  bool CanRead() const { return size_ != 0; }
  bool CanWrite() const { return size_ < EffectiveCapacity(); }

  SocketState state() const { return state_; }
  bool open() const { return state_ == SocketState::kOpen; }
  bool reset() const { return state_ == SocketState::kReset; }
  bool throttled() const { return throttled_; }

  // True when a read would not block: data is queued, or the stream carries
  // an observable condition (EOF/reset). Blocked readers sleep on
  // !ReadReady(), so every lifecycle transition satisfies their predicate.
  bool ReadReady() const { return CanRead() || state_ != SocketState::kOpen; }
  // True when a write would not block: there is room, or the write would
  // fail fast (closed/reset). A half-open socket's full queue still blocks —
  // the writer cannot tell the peer's reader died (that is the pathology).
  bool WriteReady() const {
    return CanWrite() || state_ == SocketState::kClosed || state_ == SocketState::kReset;
  }

  // Appends a message; wakes one blocked reader. kWouldBlock when the queue
  // is full, kClosed/kReset when the connection is down.
  SockStatus TryWriteMsg(Waker& waker, const Message& msg);

  // Pops the oldest message into *out; wakes one blocked writer. kWouldBlock
  // when empty and open, kEof once a closed/half-open stream has drained,
  // kReset on a reset connection.
  SockStatus TryReadMsg(Waker& waker, Message* out);

  // Back-compat wrappers used by code that never exercises the lifecycle:
  // behave exactly as the historical boolean/optional API on an open socket
  // (and map every non-kOk outcome to the failure value).
  bool TryWrite(Waker& waker, const Message& msg) {
    return TryWriteMsg(waker, msg) == SockStatus::kOk;
  }
  std::optional<Message> TryRead(Waker& waker) {
    Message msg;
    if (TryReadMsg(waker, &msg) != SockStatus::kOk) {
      return std::nullopt;
    }
    return msg;
  }

  // ---- Lifecycle transitions (each wakes all sleepers; all idempotent) ----
  // Orderly shutdown: queued messages remain drainable, then readers see
  // kEof; writers fail with kClosed. Close() wins over every state except
  // itself (closing a reset socket converts it to a quiet EOF stream).
  void Close(Waker& waker);
  // Connection reset by peer: destroys queued messages (counted in
  // stats().discarded), readers and writers fail immediately with kReset.
  // No-op on an already-reset socket.
  void ResetByPeer(Waker& waker);
  // The peer's reader dies silently: readers of this socket observe EOF
  // after drain, writers keep landing messages into a queue nobody drains.
  // Only meaningful from kOpen.
  void HalfOpenPeer(Waker& waker);
  // Reconnect analog: back to kOpen with an empty queue (stale messages are
  // counted as discarded). Wakes all sleepers so parked peers resume.
  void Reopen(Waker& waker);

  // Slow-peer throttle (fault injection): while throttled, the effective
  // capacity is 1, so writers experience a receiver that drains one message
  // at a time. Disabling wakes blocked writers.
  void SetThrottled(Waker& waker, bool throttled);

  WaitQueue& read_wait() { return read_wait_; }
  WaitQueue& write_wait() { return write_wait_; }
  const SocketStats& stats() const { return stats_; }

  // Blocking-op deadlines, the SO_RCVTIMEO/SO_SNDTIMEO analog: when nonzero,
  // BlockUntilReadable/BlockUntilWritable (socket_ops.h) bound their sleeps
  // and the woken task observes Task::block_timed_out — the simulated
  // equivalent of a read()/write() returning EAGAIN after the timeout.
  // 0 (the default) blocks forever, preserving historical behavior.
  void set_rcv_timeout(Cycles timeout) { rcv_timeout_ = timeout; }
  void set_snd_timeout(Cycles timeout) { snd_timeout_ = timeout; }
  Cycles rcv_timeout() const { return rcv_timeout_; }
  Cycles snd_timeout() const { return snd_timeout_; }

  // Called by Consume{Read,Write}Timeout when a behavior observes an expired
  // deadline on this socket.
  void CountReadTimeout() { ++stats_.read_timeouts; }
  void CountWriteTimeout() { ++stats_.write_timeouts; }

 private:
  uint32_t EffectiveCapacity() const {
    return throttled_ && capacity_ > 1 ? 1 : capacity_;
  }
  void WakeAllSleepers(Waker& waker) {
    read_wait_.WakeAll(waker);
    write_wait_.WakeAll(waker);
  }
  // Drops every queued message, counting it as discarded.
  void DiscardQueued();

  // FIFO ring: the oldest message is ring_[head_], size_ messages follow it
  // (wrapping at capacity_).
  std::unique_ptr<Message[]> ring_;
  uint32_t capacity_;
  uint32_t head_ = 0;
  uint32_t size_ = 0;
  SocketState state_ = SocketState::kOpen;
  bool throttled_ = false;
  WaitQueue read_wait_;
  WaitQueue write_wait_;
  Cycles rcv_timeout_ = 0;
  Cycles snd_timeout_ = 0;
  SocketStats stats_;
};

}  // namespace elsc

#endif  // SRC_NET_SOCKET_H_
