// Host heap per VolanoMark connection. A federation node is one Machine
// running one room of 20 users, four threads and four sockets per user, so
// the bytes one connection costs decide how many connections a host can
// simulate. This binary counts live heap bytes (the allocator's usable size
// of each block) and their peak, and bounds the peak per connection while
// one such node runs to completion.

#include <malloc.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/api/simulation.h"
#include "src/net/socket.h"
#include "src/smp/machine.h"
#include "src/workloads/volano.h"

// Every global operator new and delete in this test binary goes through the
// live/peak counters. Each test file links into its own executable, so the
// replacement affects no other test. The array forms are replaced too: a
// sanitizer runtime's own new[] would bypass the count.
namespace {
std::atomic<uint64_t> g_live_bytes{0};
std::atomic<uint64_t> g_peak_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  const uint64_t bytes = malloc_usable_size(p);
  const uint64_t live = g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  uint64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}
// Out of line, so the compiler never sees free() applied to a pointer it
// watched operator new return (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p != nullptr) {
    g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  }
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept {
  ::operator delete(p);
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t /*size*/) noexcept { ::operator delete(p); }

namespace elsc {
namespace {

constexpr int kUsers = 20;

uint64_t LiveBytes() { return g_live_bytes.load(std::memory_order_relaxed); }

// Runs one federation-shaped node (one CPU, SMP kernel, ELSC, one room of
// kUsers users) to completion and returns its peak live heap, every block
// it allocates included: engine, Machine, task arena, workload, connection
// records, socket rings. Also reports the bytes still live after teardown.
uint64_t NodePeakHeapBytes(uint64_t* leaked) {
  const uint64_t baseline = LiveBytes();
  g_peak_bytes.store(baseline, std::memory_order_relaxed);
  {
    Machine machine(MakeMachineConfig(KernelConfig::kSmp1, SchedulerKind::kElsc, 7));
    VolanoConfig chat;
    chat.rooms = 1;
    chat.users_per_room = kUsers;
    VolanoWorkload volano(machine, chat);
    volano.Setup();
    machine.Start();
    EXPECT_TRUE(machine.RunUntil([&volano] { return volano.Done(); }, SecToCycles(600)));
    EXPECT_EQ(volano.messages_delivered(), chat.expected_deliveries());
  }
  *leaked = LiveBytes() - baseline;
  return g_peak_bytes.load(std::memory_order_relaxed) - baseline;
}

TEST(FootprintTest, SocketSizeIsPinned) {
  // A 64-bit pointer and three 32-bit ring indexes, two wait queues, two
  // timeouts and SocketStats (six 64-bit and ten 32-bit counters).
  EXPECT_EQ(sizeof(SimSocket), 160u);
  EXPECT_EQ(sizeof(SocketStats), 88u);
}

// Measured at 2,858 B per connection with glibc's malloc on x86-64; the
// bound allows 2% more. Sanitizer allocators report exact sizes and read
// lower.
TEST(FootprintTest, VolanoNodeHeapPerConnection) {
  uint64_t leaked = 0;
  const uint64_t peak = NodePeakHeapBytes(&leaked);
  EXPECT_EQ(leaked, 0u) << "a node must free every block it allocates";
  EXPECT_LE(peak / kUsers, 2915u) << peak << " peak heap bytes for " << kUsers
                                     << " connections";
}

}  // namespace
}  // namespace elsc
