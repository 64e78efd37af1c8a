#include "perfbench/probes.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "src/base/rng.h"
#include "src/net/socket.h"
#include "src/sim/event_queue.h"
#include "src/sim/fabric.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class NullWaker : public elsc::Waker {
 public:
  void WakeUpProcess(elsc::Task* /*task*/) override {}
};

// Keeps a result alive so the optimizer cannot drop the loop computing it.
volatile uint64_t g_sink = 0;

}  // namespace

double ProbeEventQueueNsPerOp(uint64_t depth, double cancel_ratio, uint64_t seed,
                              double min_seconds) {
  depth = std::max<uint64_t>(depth, 1);
  cancel_ratio = std::clamp(cancel_ratio, 0.0, 0.9);
  // Extra schedule+cancel pairs per pop+schedule pair, so that
  // cancelled / scheduled == cancel_ratio in steady state.
  const double extra_per_iter = cancel_ratio / (1.0 - cancel_ratio);
  // Delays span the depth, like timers and segment ends spread over a window.
  const uint64_t spread = depth * 64;
  elsc::Rng rng(seed);
  elsc::EventQueue queue;
  uint64_t fired = 0;
  uint64_t* counter = &fired;
  elsc::Cycles now = 0;
  for (uint64_t i = 0; i < depth; ++i) {
    queue.Schedule(now + 1 + rng.NextBelow(spread), [counter] { ++*counter; });
  }
  uint64_t ops = 0;
  double credit = 0.0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 4096; ++i) {
      elsc::EventQueue::Fired next = queue.PopNext();
      now = next.when;
      next.fn();
      queue.Schedule(now + 1 + rng.NextBelow(spread), [counter] { ++*counter; });
      ops += 2;
      credit += extra_per_iter;
      if (credit >= 1.0) {
        credit -= 1.0;
        const elsc::EventId id =
            queue.Schedule(now + 1 + rng.NextBelow(spread), [counter] { ++*counter; });
        queue.Cancel(id);
        ops += 2;
      }
    }
    elapsed = Since(t0);
  } while (elapsed < min_seconds);
  g_sink = fired;
  return elapsed * 1e9 / static_cast<double>(ops);
}

double ProbeSocketRoundTripNs(size_t capacity, size_t depth, double min_seconds) {
  capacity = std::max<size_t>(capacity, 1);
  depth = std::min(depth, capacity - 1);
  NullWaker waker;
  elsc::SimSocket socket("probe.sock", capacity);
  elsc::Message msg;
  for (size_t i = 0; i < depth; ++i) {
    msg.id = i;
    socket.TryWriteMsg(waker, msg);
  }
  uint64_t trips = 0;
  uint64_t checksum = 0;
  elsc::Message out;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 4096; ++i) {
      msg.id = trips;
      checksum += socket.TryWriteMsg(waker, msg) == elsc::SockStatus::kOk ? 1 : 0;
      checksum += socket.TryReadMsg(waker, &out) == elsc::SockStatus::kOk ? out.id : 0;
      ++trips;
    }
    elapsed = Since(t0);
  } while (elapsed < min_seconds);
  g_sink = checksum;
  return elapsed * 1e9 / static_cast<double>(trips);
}

double ProbeBytesPerSocket(const std::vector<std::string>& names, size_t capacity) {
  if (names.empty()) {
    return 0.0;
  }
  std::vector<std::unique_ptr<elsc::SimSocket>> sockets;
  sockets.reserve(names.size());
  const size_t before = mallinfo2().uordblks;
  for (const std::string& name : names) {
    sockets.push_back(std::make_unique<elsc::SimSocket>(name, capacity));
  }
  const size_t after = mallinfo2().uordblks;
  return static_cast<double>(after - before) / static_cast<double>(names.size());
}

double ProbeFabricNsPerMsg(int nodes, uint64_t msgs_per_window, elsc::Cycles window,
                           double min_seconds) {
  nodes = std::max(nodes, 1);
  msgs_per_window = std::max<uint64_t>(msgs_per_window, 1);
  elsc::FabricRouter router(nodes, window, window);
  uint64_t delivered = 0;
  const elsc::FabricRouter::Sink sink = [&delivered](const elsc::FabricMessage& msg,
                                                     elsc::Cycles arrival) {
    delivered += msg.payload.id + static_cast<uint64_t>(arrival & 1);
    return elsc::FabricRouter::Delivery::kDelivered;
  };
  elsc::Message payload;
  uint64_t msgs = 0;
  uint64_t k = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    const elsc::Cycles start = static_cast<elsc::Cycles>(k) * window;
    for (uint64_t m = 0; m < msgs_per_window; ++m) {
      const int src = static_cast<int>(m % static_cast<uint64_t>(nodes));
      payload.id = m;
      router.Emit(src, (src + 1) % nodes, start + 1 + static_cast<elsc::Cycles>(m) % (window - 1),
                  payload);
    }
    router.Exchange(start + window, sink);
    msgs += msgs_per_window;
    ++k;
    elapsed = Since(t0);
  } while (elapsed < min_seconds);
  g_sink = delivered;
  return elapsed * 1e9 / static_cast<double>(msgs);
}

double ClockSpanNs() {
  constexpr int kSpans = 1 << 20;
  int64_t total = 0;
  for (int i = 0; i < kSpans; ++i) {
    const auto t0 = Clock::now();
    total += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
  }
  return static_cast<double>(total) / kSpans;
}

}  // namespace perfbench
