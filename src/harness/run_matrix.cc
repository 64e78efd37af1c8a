#include "src/harness/run_matrix.h"

#include <atomic>
#include <thread>

#include "src/base/knob.h"
#include "src/base/rng.h"
#include "src/base/watchdog.h"
#include "src/harness/thread_pool.h"

namespace elsc {

uint64_t DeriveSeed(uint64_t base_seed, uint64_t cell_key, uint64_t replicate) {
  uint64_t x = base_seed;
  uint64_t mixed = SplitMix64(&x);
  x ^= cell_key;
  mixed ^= SplitMix64(&x);
  x ^= replicate;
  mixed ^= SplitMix64(&x);
  // Seed 0 would collapse some generators' state; remap it.
  return mixed != 0 ? mixed : 0x9e3779b97f4a7c15ull;
}

int HardwareJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int BenchJobs() { return IntEnv("ELSC_BENCH_JOBS", HardwareJobs()); }

void ClaimEach(ThreadPool* pool, size_t n, double budget_sec,
               const std::function<void(size_t)>& body) {
  std::atomic<size_t> next{0};
  const auto claims = [&next, n, budget_sec, &body] {
    CellWatchdog dog(budget_sec);
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
  };
  if (pool == nullptr) {
    claims();
    return;
  }
  for (int w = 0; w < pool->threads(); ++w) {
    pool->Submit(claims);
  }
  pool->Wait();
}

void ParallelFor(size_t n, int jobs, const std::function<void(size_t)>& body) {
  if (jobs <= 1 || n <= 1) {
    ClaimEach(nullptr, n, 0.0, body);
    return;
  }
  ThreadPool pool(static_cast<size_t>(jobs) < n ? jobs : static_cast<int>(n));
  ClaimEach(&pool, n, 0.0, body);
}

}  // namespace elsc
