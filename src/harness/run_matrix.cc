#include "src/harness/run_matrix.h"

#include <atomic>
#include <cstdlib>
#include <thread>

#include "src/base/rng.h"
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

int BenchJobs() {
  const char* env = std::getenv("ELSC_BENCH_JOBS");
  if (env != nullptr && env[0] != '\0') {
    const int jobs = std::atoi(env);
    if (jobs > 0) {
      return jobs;
    }
  }
  return HardwareJobs();
}

void ParallelFor(size_t n, int jobs, const std::function<void(size_t)>& body) {
  if (n == 0) {
    return;
  }
  if (jobs <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }
  const int workers = static_cast<size_t>(jobs) < n ? jobs : static_cast<int>(n);
  ThreadPool pool(workers);
  // Strip-mine through an atomic cursor instead of queueing one job per cell:
  // workers stay busy regardless of per-cell runtime skew.
  std::atomic<size_t> next{0};
  for (int w = 0; w < workers; ++w) {
    pool.Submit([&next, n, &body] {
      while (true) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) {
          return;
        }
        body(i);
      }
    });
  }
  pool.Wait();
}

}  // namespace elsc
