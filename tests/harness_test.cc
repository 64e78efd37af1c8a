// Tests for the parallel experiment harness: the thread pool, ParallelFor,
// seed derivation, and — the property the whole design hangs on — that
// RunMatrix produces bit-identical simulation results whatever the job
// count.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/api/simulation.h"
#include "src/harness/run_matrix.h"
#include "src/harness/thread_pool.h"

namespace elsc {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitCanBeReusedAcrossRounds) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (round + 1) * 10);
  }
}

TEST(ThreadPoolTest, DestructorDrainsPendingJobs) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, WaitRethrowsFirstWorkerException) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  pool.Submit([] { throw std::runtime_error("worker blew up"); });
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&completed] { completed.fetch_add(1, std::memory_order_relaxed); });
  }
  // The failure must surface at Wait() — not vanish, not terminate().
  EXPECT_THROW(
      {
        try {
          pool.Wait();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "worker blew up");
          throw;
        }
      },
      std::runtime_error);
  // Other jobs still ran; the pool is reusable after the rethrow.
  EXPECT_EQ(completed.load(), 20);
  pool.Submit([&completed] { completed.fetch_add(1, std::memory_order_relaxed); });
  pool.Wait();  // No stale exception resurfaces.
  EXPECT_EQ(completed.load(), 21);
}

TEST(ThreadPoolTest, OnlyFirstOfManyExceptionsIsKept) {
  ThreadPool pool(4);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([] { throw std::runtime_error("boom"); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  pool.Wait();  // Subsequent waits are clean.
}

TEST(ParallelForTest, CoversEachIndexExactlyOnce) {
  for (const int jobs : {1, 2, 4, 8}) {
    std::mutex mu;
    std::multiset<size_t> seen;
    ParallelFor(237, jobs, [&](size_t i) {
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(i);
    });
    ASSERT_EQ(seen.size(), 237u) << "jobs=" << jobs;
    for (size_t i = 0; i < 237; ++i) {
      EXPECT_EQ(seen.count(i), 1u) << "jobs=" << jobs << " i=" << i;
    }
  }
}

TEST(ParallelForTest, SerialModeRunsInAscendingOrderOnCallingThread) {
  std::vector<size_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  ParallelFor(50, 1, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 50u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ParallelForTest, ZeroIterationsIsANoOp) {
  ParallelFor(0, 4, [](size_t) { FAIL() << "body must not run"; });
}

TEST(DeriveSeedTest, DeterministicAndSensitiveToEveryInput) {
  const uint64_t base = DeriveSeed(1, 2, 3);
  EXPECT_EQ(DeriveSeed(1, 2, 3), base);
  EXPECT_NE(DeriveSeed(2, 2, 3), base);
  EXPECT_NE(DeriveSeed(1, 3, 3), base);
  EXPECT_NE(DeriveSeed(1, 2, 4), base);
}

TEST(DeriveSeedTest, SpreadsAcrossReplicatesWithoutCollisionsOrZeros) {
  std::set<uint64_t> seeds;
  for (uint64_t cell = 0; cell < 64; ++cell) {
    for (uint64_t replicate = 0; replicate < 64; ++replicate) {
      const uint64_t seed = DeriveSeed(1, cell, replicate);
      EXPECT_NE(seed, 0u);
      seeds.insert(seed);
    }
  }
  EXPECT_EQ(seeds.size(), 64u * 64u);
}

TEST(BenchJobsTest, EnvOverrideAndDefault) {
  ASSERT_EQ(setenv("ELSC_BENCH_JOBS", "3", 1), 0);
  EXPECT_EQ(BenchJobs(), 3);
  ASSERT_EQ(setenv("ELSC_BENCH_JOBS", "not-a-number", 1), 0);
  EXPECT_EXIT(BenchJobs(), ::testing::ExitedWithCode(2), "bad ELSC_BENCH_JOBS value");
  ASSERT_EQ(unsetenv("ELSC_BENCH_JOBS"), 0);
  EXPECT_EQ(BenchJobs(), HardwareJobs());
  EXPECT_GE(HardwareJobs(), 1);
}

// The tentpole property: a matrix of real simulation cells produces
// bit-identical RunStats whether it runs serially or on four threads.
TEST(RunMatrixTest, SimulationResultsBitIdenticalAcrossJobCounts) {
  struct CellSpec {
    KernelConfig kernel;
    SchedulerKind scheduler;
    uint64_t seed;
  };
  const std::vector<CellSpec> cells = {
      {KernelConfig::kUp, SchedulerKind::kLinux, 1},
      {KernelConfig::kUp, SchedulerKind::kElsc, 1},
      {KernelConfig::kSmp2, SchedulerKind::kElsc, 7},
      {KernelConfig::kSmp4, SchedulerKind::kLinux, 7},
  };
  auto run_cell = [&cells](size_t i) {
    VolanoConfig volano;
    volano.rooms = 1;
    volano.users_per_room = 8;
    volano.messages_per_user = 10;
    const VolanoRun run =
        RunVolano(MakeMachineConfig(cells[i].kernel, cells[i].scheduler, cells[i].seed),
                  volano);
    return RunStatsDigest(run.stats) + "|" + EngineDigest(run.stats);
  };

  const std::vector<std::string> serial = RunMatrix(cells.size(), run_cell, 1);
  for (const int jobs : {2, 4}) {
    const std::vector<std::string> parallel = RunMatrix(cells.size(), run_cell, jobs);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i]) << "jobs=" << jobs << " cell=" << i;
    }
  }
  // And re-running serially reproduces the digests exactly (pure seeding).
  EXPECT_EQ(RunMatrix(cells.size(), run_cell, 1), serial);
}

// Chaos cells obey the same cardinal rule: a fault plan replayed on 1, 2, or
// 4 worker threads produces bit-identical digests — fault injection and the
// auditor add nothing schedule-dependent.
TEST(RunMatrixTest, ChaosCellsBitIdenticalAcrossJobCounts) {
  struct CellSpec {
    KernelConfig kernel;
    SchedulerKind scheduler;
    uint64_t seed;
  };
  const std::vector<CellSpec> cells = {
      {KernelConfig::kUp, SchedulerKind::kLinux, 3},
      {KernelConfig::kSmp2, SchedulerKind::kElsc, 3},
      {KernelConfig::kSmp2, SchedulerKind::kHeap, 5},
      {KernelConfig::kSmp4, SchedulerKind::kMultiQueue, 5},
  };
  auto run_cell = [&cells](size_t i) {
    ChaosMixConfig mix;
    mix.seed = cells[i].seed;
    ChaosOptions chaos;
    chaos.faults = FullChaosPlan(cells[i].seed);
    chaos.audit = StrictAudit();
    const ChaosMixRun run =
        RunChaosMix(MakeMachineConfig(cells[i].kernel, cells[i].scheduler, cells[i].seed),
                    mix, SecToCycles(120), chaos);
    return RunStatsDigest(run.stats) + "|" + EngineDigest(run.stats);
  };

  const std::vector<std::string> serial = RunMatrix(cells.size(), run_cell, 1);
  for (const int jobs : {2, 4}) {
    const std::vector<std::string> parallel = RunMatrix(cells.size(), run_cell, jobs);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i]) << "jobs=" << jobs << " cell=" << i;
    }
  }
  EXPECT_EQ(RunMatrix(cells.size(), run_cell, 1), serial);
}

// ---------------------------------------------------------------------------
// Golden-stats determinism suite.
//
// These digests were recorded from the simulator BEFORE the host-time
// hot-path overhaul (task arena, ELSC occupancy bitmap, idle-CPU mask, trace
// ring buffer) landed, and must stay bit-identical forever after: host-time
// optimizations are not allowed to change a single simulated counter. Each
// cell pins two strings:
//   * `golden`, its RunStatsDigest: every sched, machine, faults and audit
//     counter, the failure verdict, and the simulated elapsed time (hex
//     float). It moves only when simulated behavior changes.
//   * `engine`, its EngineDigest: the six event-queue counters. An engine
//     change may move this one alone, with the new counts in CHANGES.md.
// Neither covers the memory counters (host layout). Both were re-recorded
// once, as a relayout, when the event-queue counters moved out of the
// RunStatsDigest and the remaining simulated counters moved in; every value
// kept its place in its section.
//
// To re-record after an *intentional* behavior change (new counter, changed
// simulation semantics — never a perf change), run:
//   ELSC_GOLDEN_PRINT=1 ./harness_test --gtest_filter='GoldenStats*'
// and paste the printed GOLDEN/ENGINE lines over the `golden` and `engine`
// fields below.
// ---------------------------------------------------------------------------

enum class GoldenKind { kVolano, kChaos };

struct GoldenCell {
  GoldenKind kind;
  KernelConfig kernel;
  SchedulerKind scheduler;
  uint64_t seed;
  const char* golden;  // RunStatsDigest.
  const char* engine;  // EngineDigest.
};

// The cell's RunStatsDigest and EngineDigest.
std::pair<std::string, std::string> RunGoldenCell(const GoldenCell& cell) {
  const MachineConfig mc = MakeMachineConfig(cell.kernel, cell.scheduler, cell.seed);
  RunStats stats;
  if (cell.kind == GoldenKind::kVolano) {
    VolanoConfig volano;
    volano.rooms = 1;
    volano.users_per_room = 8;
    volano.messages_per_user = 10;
    stats = RunVolano(mc, volano).stats;
  } else {
    ChaosMixConfig mix;
    mix.seed = cell.seed;
    ChaosOptions chaos;
    chaos.faults = FullChaosPlan(cell.seed);
    chaos.audit = StrictAudit();
    stats = RunChaosMix(mc, mix, SecToCycles(120), chaos).stats;
  }
  return {RunStatsDigest(stats), EngineDigest(stats)};
}

// Every scheduler appears in both a clean VolanoMark cell and a full-chaos
// cell (fork/exit storms, spurious wakes, CPU stalls, strict auditing), so
// the goldens pin down the allocation order, idle-CPU selection, ELSC table
// walk, and trace-adjacent paths the overhaul touches.
const std::vector<GoldenCell>& GoldenCells() {
  static const std::vector<GoldenCell> cells = {
      {GoldenKind::kVolano, KernelConfig::kUp, SchedulerKind::kLinux, 11,
       "sched:4223,9,10160840,0,27431,290,4630,0,291,0,0,1457,109,0,0,0,0,0,0,0,0|"
       "machine:22,3923,0,1423,34,34,0,109,0,0,0,33|faults:0,0,0,0,0,0,0,0,0,0,0,0|"
       "audit:0,0,0,0,0,0,0,0,0|failed:0|elapsed:0x1.d54f0f31cc2aep-3",
       "events:10884,10799,83,0,3,3"},
      {GoldenKind::kVolano, KernelConfig::kUp, SchedulerKind::kElsc, 11,
       "sched:4168,9,5042880,0,7191,0,0,0,1590,0,1578,1437,221,0,0,0,0,0,0,0,0|"
       "machine:21,2569,0,1403,34,34,0,221,0,0,0,34|faults:0,0,0,0,0,0,0,0,0,0,0,0|"
       "audit:0,0,0,0,0,0,0,0,0|failed:0|elapsed:0x1.b958a76102795p-3",
       "events:10773,10567,204,0,3,3"},
      {GoldenKind::kVolano, KernelConfig::kSmp2, SchedulerKind::kElsc, 12,
       "sched:4416,23,6265220,272580,11207,0,0,454,1935,454,1930,1215,147,0,0,0,0,0,0,0,0|"
       "machine:12,2458,454,1181,34,34,0,147,0,0,0,33|faults:0,0,0,0,0,0,0,0,0,0,0,0|"
       "audit:0,0,0,0,0,0,0,0,0|failed:0|elapsed:0x1.fcc983413d8dp-4",
       "events:11246,11103,141,0,4,4"},
      {GoldenKind::kVolano, KernelConfig::kSmp4, SchedulerKind::kLinux, 12,
       "sched:3671,61,10656440,3287342,30191,350,5758,312,367,312,0,1120,112,0,0,0,0,0,0,0,0|"
       "machine:7,3243,312,1089,34,34,0,112,0,0,0,34|faults:0,0,0,0,0,0,0,0,0,0,0,0|"
       "audit:0,0,0,0,0,0,0,0,0|failed:0|elapsed:0x1.324af571b19e2p-4",
       "events:9713,9608,103,0,5,5"},
      {GoldenKind::kVolano, KernelConfig::kSmp4, SchedulerKind::kHeap, 13,
       "sched:2615,42,3106773,152635,2573,0,0,1593,344,1593,0,950,96,0,0,0,0,0,0,0,0|"
       "machine:7,2229,1593,917,34,34,0,96,0,0,0,34|faults:0,0,0,0,0,0,0,0,0,0,0,0|"
       "audit:0,0,0,0,0,0,0,0,0|failed:0|elapsed:0x1.38525d9ae5c9fp-4",
       "events:7620,7528,90,0,5,5"},
      {GoldenKind::kVolano, KernelConfig::kSmp4, SchedulerKind::kMultiQueue, 14,
       "sched:4178,56,5663950,0,8800,337,5475,227,473,227,0,1138,171,4178,0,5663950,0,0,0,0,0|"
       "machine:6,3649,227,1104,34,34,0,171,0,0,0,34|faults:0,0,0,0,0,0,0,0,0,0,0,0|"
       "audit:0,0,0,0,0,0,0,0,0|failed:0|elapsed:0x1.160e30446b69ep-4",
       "events:10731,10479,250,0,5,5"},
      {GoldenKind::kChaos, KernelConfig::kSmp2, SchedulerKind::kLinux, 21,
       "sched:589,6,2290810,53970,7672,3,7,5,4,5,0,75,4,0,0,0,0,0,0,0,0|"
       "machine:8,579,5,43,32,32,0,4,0,0,200000,26|faults:1,3,0,0,12,4,0,1,0,0,0,0|"
       "audit:9,588,0,0,0,0,0,0,0|failed:0|elapsed:0x1.7c49a63c3f4b7p-4",
       "events:1460,1445,6,0,15,15"},
      {GoldenKind::kChaos, KernelConfig::kSmp4, SchedulerKind::kElsc, 22,
       "sched:632,16,1307390,61600,3224,0,0,154,61,154,57,85,15,0,0,0,0,0,0,0,0|"
       "machine:4,555,154,53,32,32,0,15,0,0,0,27|faults:0,1,0,0,6,4,0,0,0,0,0,0|"
       "audit:4,631,0,0,0,0,0,0,0|failed:0|elapsed:0x1.6c74ede8a6472p-5",
       "events:1458,1428,19,0,19,19"},
      {GoldenKind::kChaos, KernelConfig::kUp, SchedulerKind::kHeap, 23,
       "sched:564,1,697070,0,563,0,0,0,36,0,0,81,30,0,0,0,0,0,0,0,0|"
       "machine:10,527,0,49,32,32,0,30,1,0,200000,26|faults:2,4,0,0,18,4,0,1,0,0,0,0|"
       "audit:12,563,0,0,0,0,0,0,0|failed:0|elapsed:0x1.f30786dcfe734p-4",
       "events:1369,1326,34,0,15,15"},
      {GoldenKind::kChaos, KernelConfig::kSmp2, SchedulerKind::kMultiQueue, 24,
       "sched:593,2,1413960,0,4151,3,6,4,4,4,0,86,2,593,0,1413960,0,0,0,0,0|"
       "machine:7,587,4,54,32,32,0,2,1,0,0,27|faults:2,3,0,0,12,4,0,1,0,0,0,0|"
       "audit:9,591,0,0,0,0,0,0,0|failed:0|elapsed:0x1.734bde24e3e51p-4",
       "events:1426,1412,5,0,16,16"},
  };
  return cells;
}

TEST(GoldenStatsTest, DigestsMatchRecordedGoldenAtEveryJobCount) {
  const std::vector<GoldenCell>& cells = GoldenCells();
  auto run_cell = [&cells](size_t i) { return RunGoldenCell(cells[i]); };
  const bool print = std::getenv("ELSC_GOLDEN_PRINT") != nullptr;
  for (const int jobs : {1, 2, 4}) {
    const std::vector<std::pair<std::string, std::string>> digests =
        RunMatrix(cells.size(), run_cell, jobs);
    ASSERT_EQ(digests.size(), cells.size());
    if (print && jobs == 1) {
      for (size_t i = 0; i < digests.size(); ++i) {
        printf("GOLDEN[%zu] = \"%s\"\nENGINE[%zu] = \"%s\"\n", i,
               digests[i].first.c_str(), i, digests[i].second.c_str());
      }
      fflush(stdout);
    }
    for (size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(digests[i].first, cells[i].golden)
          << "jobs=" << jobs << " cell=" << i << " ("
          << KernelConfigLabel(cells[i].kernel) << "/"
          << SchedulerKindName(cells[i].scheduler) << " seed=" << cells[i].seed
          << ") — simulated behavior diverged from the recorded golden";
      EXPECT_EQ(digests[i].second, cells[i].engine)
          << "jobs=" << jobs << " cell=" << i << " — the engine's event counts moved";
    }
  }
}

TEST(RunMatrixTest, ResultsLandAtTheirOwnIndex) {
  const std::vector<size_t> results =
      RunMatrix(100, [](size_t i) { return i * i; }, 4);
  ASSERT_EQ(results.size(), 100u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

}  // namespace
}  // namespace elsc
