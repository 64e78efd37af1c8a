// Parallel experiment harness: fan independent simulation cells out across
// host cores.
//
// Every figure/table in the paper's evaluation is a matrix of independent
// cells (kernel config x scheduler x room count x replicate); each cell
// builds its own Machine from its own seed, so cells share no mutable state
// and can run on any thread in any order. RunMatrix() preserves result
// order by index, which makes the output — and every derived statistic —
// bit-identical whatever the job count (tests/harness_test.cc enforces
// this).
//
// Job count comes from the ELSC_BENCH_JOBS environment variable (default:
// hardware concurrency). jobs = 1 runs the cells inline on the calling
// thread in index order, reproducing the historical serial behavior exactly.
//
// Replicates use DeriveSeed(base_seed, cell_key, replicate): a splitmix64
// mix of the three values, so every {cell, replicate} pair gets an
// independent, reproducible stream and adding replicates never perturbs
// existing ones.

#ifndef SRC_HARNESS_RUN_MATRIX_H_
#define SRC_HARNESS_RUN_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace elsc {

// splitmix64 mix of {base_seed, cell_key, replicate} — deterministic,
// well-spread, and independent of evaluation order.
uint64_t DeriveSeed(uint64_t base_seed, uint64_t cell_key, uint64_t replicate);

// std::thread::hardware_concurrency(), floored at 1.
int HardwareJobs();

// The harness-wide job count: ELSC_BENCH_JOBS, an integer >= 1 (anything
// else exits 2, src/base/knob.h), or HardwareJobs() when it is unset.
int BenchJobs();

class ThreadPool;

// Runs body(i) once for each i in [0, n) and returns when every call has
// finished. Each of the pool's workers claims the next index from one atomic
// cursor until the cursor passes n, so a worker that draws cheap indices takes
// more of them and none waits while another still has indices to run. The
// first exception of the round is rethrown once every worker has stopped (the
// others keep claiming until the cursor passes n), and the pool stays usable.
// A null pool runs the same loop on the calling thread, in ascending order.
// Each worker runs its whole share under one CellWatchdog(budget_sec); a
// budget <= 0 arms none.
void ClaimEach(ThreadPool* pool, size_t n, double budget_sec,
               const std::function<void(size_t)>& body);

// Runs body(0..n-1) on `jobs` threads through ClaimEach. jobs <= 1 (or
// n <= 1) runs inline on the calling thread in ascending index order.
void ParallelFor(size_t n, int jobs, const std::function<void(size_t)>& body);

// Runs `cells` independent cells and returns their results in index order.
// jobs = 0 means BenchJobs(). The result type must be default-constructible
// and movable.
template <typename Fn>
auto RunMatrix(size_t cells, Fn&& run_cell, int jobs = 0)
    -> std::vector<decltype(run_cell(size_t{0}))> {
  std::vector<decltype(run_cell(size_t{0}))> results(cells);
  ParallelFor(cells, jobs == 0 ? BenchJobs() : jobs,
              [&](size_t i) { results[i] = run_cell(i); });
  return results;
}

}  // namespace elsc

#endif  // SRC_HARNESS_RUN_MATRIX_H_
