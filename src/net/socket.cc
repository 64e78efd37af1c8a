#include "src/net/socket.h"

#include <algorithm>

#include "src/base/assert.h"

namespace elsc {

const char* SockStatusName(SockStatus status) {
  switch (status) {
    case SockStatus::kOk:
      return "ok";
    case SockStatus::kWouldBlock:
      return "would_block";
    case SockStatus::kEof:
      return "eof";
    case SockStatus::kClosed:
      return "closed";
    case SockStatus::kReset:
      return "reset";
  }
  return "unknown";
}

SimSocket::SimSocket(std::string name, size_t capacity)
    : name_(std::move(name)), capacity_(capacity) {
  ELSC_CHECK(capacity >= 1);
  ring_ = std::make_unique<Message[]>(capacity);
}

SockStatus SimSocket::TryWriteMsg(Waker& waker, const Message& msg) {
  switch (state_) {
    case SocketState::kClosed:
      ++stats_.write_closed;
      return SockStatus::kClosed;
    case SocketState::kReset:
      ++stats_.write_resets;
      return SockStatus::kReset;
    case SocketState::kOpen:
    case SocketState::kHalfOpen:
      break;
  }
  if (!CanWrite()) {
    ++stats_.write_blocks;
    return SockStatus::kWouldBlock;
  }
  size_t tail = head_ + size_;
  if (tail >= capacity_) {
    tail -= capacity_;
  }
  ring_[tail] = msg;
  ++size_;
  ++stats_.writes;
  stats_.max_depth = std::max<uint64_t>(stats_.max_depth, size_);
  read_wait_.WakeOne(waker);
  return SockStatus::kOk;
}

SockStatus SimSocket::TryReadMsg(Waker& waker, Message* out) {
  // A reset destroys in-flight data, so there is never anything to drain.
  if (state_ == SocketState::kReset) {
    ++stats_.read_resets;
    return SockStatus::kReset;
  }
  if (!CanRead()) {
    if (state_ == SocketState::kOpen) {
      ++stats_.read_blocks;
      return SockStatus::kWouldBlock;
    }
    // Closed or half-open and fully drained: end of stream.
    ++stats_.read_eofs;
    return SockStatus::kEof;
  }
  *out = ring_[head_];
  if (++head_ == capacity_) {
    head_ = 0;
  }
  --size_;
  ++stats_.reads;
  write_wait_.WakeOne(waker);
  return SockStatus::kOk;
}

void SimSocket::Close(Waker& waker) {
  if (state_ == SocketState::kClosed) {
    return;  // Double-close is idempotent, like close(2) on our side.
  }
  // Closing a reset socket quiets it: the queue is already gone, readers now
  // see EOF instead of an error.
  state_ = SocketState::kClosed;
  ++stats_.closes;
  WakeAllSleepers(waker);
}

void SimSocket::ResetByPeer(Waker& waker) {
  if (state_ == SocketState::kReset || state_ == SocketState::kClosed) {
    // Already reset, or already closed on our side — an RST arriving for a
    // connection we tore down is unobservable (there is no fd left to
    // report it on), so it must not resurrect the socket into an error
    // state nobody owns.
    return;
  }
  DiscardQueued();
  state_ = SocketState::kReset;
  ++stats_.peer_resets;
  WakeAllSleepers(waker);
}

void SimSocket::HalfOpenPeer(Waker& waker) {
  if (state_ != SocketState::kOpen) {
    return;  // A dead/closed connection cannot go half-open.
  }
  state_ = SocketState::kHalfOpen;
  ++stats_.half_opens;
  // Only readers can observe the change (writers keep landing messages);
  // wake them so a drained reader sees EOF instead of sleeping forever.
  read_wait_.WakeAll(waker);
}

void SimSocket::Reopen(Waker& waker) {
  if (state_ == SocketState::kOpen && size_ == 0) {
    return;
  }
  DiscardQueued();
  state_ = SocketState::kOpen;
  ++stats_.reopens;
  WakeAllSleepers(waker);
}

void SimSocket::SetThrottled(Waker& waker, bool throttled) {
  if (throttled_ == throttled) {
    return;
  }
  throttled_ = throttled;
  if (!throttled_) {
    // Capacity grew back: blocked writers may proceed.
    write_wait_.WakeAll(waker);
  }
}

}  // namespace elsc
