// Ablation A3 (google-benchmark): raw run-queue operation costs of the three
// schedulers versus runnable-queue depth.
//
// Two complementary measurements per operation:
//  * wall-clock time of this library's implementation (benchmark's metric) —
//    the host-side algorithmic complexity;
//  * simulated cycles charged by the cost model (exported as a counter) —
//    the quantity the paper's Figure 5 reports.
//
// BM_Schedule and BM_ScheduleSmp4 time each pick with its own steady-clock
// span (manual time), so the untimed restore of the queue after it costs
// nothing; each span also holds one clock read, which BM_ClockSpan measures
// alone.
//
// The stock scheduler's Schedule() is O(queue depth); ELSC's is bounded by
// its search limit; the heap's is O(log n).

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <vector>

#include "src/base/arena.h"
#include "src/base/bitmap.h"
#include "src/base/rng.h"
#include "src/kernel/task.h"
#include "src/sched/cost_model.h"
#include "src/sched/factory.h"
#include "src/sched/goodness.h"
#include "tests/sched_test_util.h"

namespace elsc {
namespace {

// Builds a scheduler with `depth` runnable SCHED_OTHER tasks of varied
// static goodness.
struct Population {
  Population(SchedulerKind kind, int depth) {
    SchedulerConfig config{2, true};
    scheduler = MakeScheduler(kind, CostModel::PentiumII(), factory.task_list(), config);
    Rng rng(42);
    tasks.reserve(static_cast<size_t>(depth));
    for (int i = 0; i < depth; ++i) {
      const long priority = static_cast<long>(1 + rng.NextBelow(40));
      const long counter = static_cast<long>(1 + rng.NextBelow(static_cast<uint64_t>(2 * priority)));
      Task* t = factory.NewTask(counter, priority);
      t->processor = static_cast<int>(rng.NextBelow(2));
      scheduler->AddToRunQueue(t);
      tasks.push_back(t);
    }
  }

  TaskFactory factory;
  std::unique_ptr<Scheduler> scheduler;
  std::vector<Task*> tasks;
};

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

void BM_Schedule(benchmark::State& state, SchedulerKind kind) {
  const int depth = static_cast<int>(state.range(0));
  Population pop(kind, depth);
  uint64_t sim_cycles = 0;
  uint64_t calls = 0;
  for (auto _ : state) {
    CostMeter meter(pop.scheduler->cost_model());
    const Clock::time_point begin = Clock::now();
    Task* next = pop.scheduler->Schedule(0, nullptr, meter);
    const Clock::time_point end = Clock::now();
    benchmark::DoNotOptimize(next);
    state.SetIterationTime(Seconds(begin, end));
    sim_cycles += meter.cycles();
    ++calls;
    if (next != nullptr) {
      // Put the pick back so the queue depth stays constant (untimed).
      pop.scheduler->DelFromRunQueue(next);
      next->run_list.next = nullptr;
      next->run_list.prev = nullptr;
      pop.scheduler->AddToRunQueue(next);
    }
  }
  state.counters["sim_cycles/op"] =
      benchmark::Counter(static_cast<double>(sim_cycles) / static_cast<double>(calls));
}

// The VolanoMark cell's pick in miniature: 4 CPUs with the tasks spread
// over them, two mms (the server and client JVMs), and three quarters of
// the weights at the top (counter = priority = 20), so most slots tie and
// the mm bonus decides whether another CPU's slot can reach the best. Each
// pick comes from a CPU whose task just blocked, rotating over the CPUs,
// and the picked task is re-filed (untimed) on its own CPU.
void BM_ScheduleSmp4(benchmark::State& state, SchedulerKind kind) {
  constexpr int kCpus = 4;
  const int depth = static_cast<int>(state.range(0));
  TaskFactory factory;
  std::unique_ptr<Scheduler> scheduler =
      MakeScheduler(kind, CostModel::PentiumII(), factory.task_list(), SchedulerConfig{kCpus, true});
  MmStruct* const mms[2] = {factory.NewMm(), factory.NewMm()};
  Rng rng(42);
  for (int i = 0; i < depth; ++i) {
    const long counter = rng.NextBool(0.25) ? static_cast<long>(1 + rng.NextBelow(19)) : 20;
    Task* t = factory.NewTask(counter, 20, mms[rng.NextBelow(2)]);
    t->processor = i % kCpus;
    scheduler->AddToRunQueue(t);
  }
  Task* sleeper = factory.NewTask(20, 20, mms[0]);
  sleeper->state = TaskState::kInterruptible;
  uint64_t sim_cycles = 0;
  uint64_t calls = 0;
  int cpu = 0;
  for (auto _ : state) {
    CostMeter meter(scheduler->cost_model());
    const Clock::time_point begin = Clock::now();
    Task* next = scheduler->Schedule(cpu, sleeper, meter);
    const Clock::time_point end = Clock::now();
    benchmark::DoNotOptimize(next);
    state.SetIterationTime(Seconds(begin, end));
    sim_cycles += meter.cycles();
    ++calls;
    if (next != nullptr) {
      scheduler->DelFromRunQueue(next);
      next->run_list.next = nullptr;
      next->run_list.prev = nullptr;
      scheduler->AddToRunQueue(next);
    }
    cpu = (cpu + 1) % kCpus;
  }
  state.counters["sim_cycles/op"] =
      benchmark::Counter(static_cast<double>(sim_cycles) / static_cast<double>(calls));
}

// An empty span timed the way BM_Schedule times a pick: the clock's own
// share of every BM_Schedule figure.
void BM_ClockSpan(benchmark::State& state) {
  for (auto _ : state) {
    const Clock::time_point begin = Clock::now();
    const Clock::time_point end = Clock::now();
    state.SetIterationTime(Seconds(begin, end));
  }
}

void BM_AddDel(benchmark::State& state, SchedulerKind kind) {
  const int depth = static_cast<int>(state.range(0));
  Population pop(kind, depth);
  Task* extra = pop.factory.NewTask(20, 20);
  for (auto _ : state) {
    pop.scheduler->AddToRunQueue(extra);
    pop.scheduler->DelFromRunQueue(extra);
    extra->run_list.next = nullptr;
    extra->run_list.prev = nullptr;
  }
}

// ---------------------------------------------------------------------------
// Table search: "find the highest populated list" — the query at the heart of
// the ELSC table scan — implemented two ways. The linear scan is what the
// run queue did before the occupancy bitmap; the bitmap answers with a
// count-leading-zeros. Sparse occupancy (few populated lists near the bottom
// of a wide table) is the bitmap's best case and the linear scan's worst.
// ---------------------------------------------------------------------------

struct TableOccupancy {
  TableOccupancy(int lists, int populated) : occupied(static_cast<size_t>(lists), false), bitmap(lists) {
    Rng rng(7);
    for (int i = 0; i < populated; ++i) {
      // Bias toward low indices, like a table where most tasks have modest
      // static goodness: the search from the top walks many empty lists.
      const int idx = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(lists / 2)));
      occupied[static_cast<size_t>(idx)] = true;
      bitmap.Set(idx);
    }
  }
  std::vector<bool> occupied;
  OccupancyBitmap bitmap;
};

void BM_TableSearchLinear(benchmark::State& state) {
  const int lists = static_cast<int>(state.range(0));
  TableOccupancy table(lists, /*populated=*/4);
  for (auto _ : state) {
    int found = -1;
    for (int i = lists - 1; i >= 0; --i) {
      if (table.occupied[static_cast<size_t>(i)]) {
        found = i;
        break;
      }
    }
    benchmark::DoNotOptimize(found);
  }
}

void BM_TableSearchBitmap(benchmark::State& state) {
  const int lists = static_cast<int>(state.range(0));
  TableOccupancy table(lists, /*populated=*/4);
  for (auto _ : state) {
    int found = table.bitmap.Highest();
    benchmark::DoNotOptimize(found);
  }
}

// ---------------------------------------------------------------------------
// The O(1) pick primitive against the scans it replaces. Three ways to answer
// "which runnable task runs next?" at queue depth N:
//  * goodness scan — the stock O(n) walk, one Goodness() per runnable task;
//  * ELSC table search — find the highest populated list (BM_TableSearch*);
//  * O(1) pick — find-first-set on a 140-entry priority bitmap, plus the
//    constant-time active/expired array swap when the epoch turns over.
// The O(1) loop below runs the full steady-state cycle (pick → expire the
// level into the other array → swap when the active side drains), so its
// flat line versus depth includes the swap, not just the ffs.
// ---------------------------------------------------------------------------

void BM_GoodnessScanPick(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  TaskFactory factory;
  Rng rng(42);
  std::vector<Task*> tasks;
  tasks.reserve(static_cast<size_t>(depth));
  for (int i = 0; i < depth; ++i) {
    const long priority = static_cast<long>(1 + rng.NextBelow(40));
    Task* t = factory.NewTask(static_cast<long>(1 + rng.NextBelow(2 * priority)), priority);
    t->processor = static_cast<int>(rng.NextBelow(2));
    tasks.push_back(t);
  }
  const MmStruct* mm = tasks.front()->mm;
  for (auto _ : state) {
    long best = kUnschedulableWeight;
    Task* pick = nullptr;
    for (Task* t : tasks) {
      const long g = Goodness(*t, 0, mm, /*smp=*/true);
      if (g > best) {
        best = g;
        pick = t;
      }
    }
    benchmark::DoNotOptimize(pick);
  }
}

void BM_O1BitmapPick(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  constexpr int kLevels = 140;
  // Per-level task counts in two arrays, exactly the O(1) run queue's shape:
  // depth tasks spread over the 40 SCHED_OTHER levels of the active array.
  OccupancyBitmap bitmaps[2] = {OccupancyBitmap(kLevels), OccupancyBitmap(kLevels)};
  int counts[2][kLevels] = {};
  int active = 0;
  Rng rng(42);
  for (int i = 0; i < depth; ++i) {
    const int prio = static_cast<int>(100 + rng.NextBelow(40));
    ++counts[active][prio];
    bitmaps[active].Set(prio);
  }
  for (auto _ : state) {
    int prio = bitmaps[active].Lowest();
    if (prio < 0) {
      active ^= 1;  // Epoch turnover: the arrays swap in O(1).
      prio = bitmaps[active].Lowest();
    }
    benchmark::DoNotOptimize(prio);
    // Expire the picked task into the other array to keep the cycle going.
    if (--counts[active][prio] == 0) {
      bitmaps[active].Clear(prio);
    }
    const int other = active ^ 1;
    if (counts[other][prio]++ == 0) {
      bitmaps[other].Set(prio);
    }
  }
}

// ---------------------------------------------------------------------------
// Task allocation: the slab arena (what the Machine uses) versus a fresh heap
// allocation per task (what it used before). Each iteration allocates a
// batch of Tasks and frees them: the heap one block per Task, the arena one
// block per eight Tasks, all freed when the arena dies (it never releases a
// single Task).
// ---------------------------------------------------------------------------

constexpr int kAllocBatch = 64;

void BM_TaskAllocHeap(benchmark::State& state) {
  std::vector<std::unique_ptr<Task>> batch;
  batch.reserve(kAllocBatch);
  for (auto _ : state) {
    for (int i = 0; i < kAllocBatch; ++i) {
      batch.push_back(std::make_unique<Task>());
      benchmark::DoNotOptimize(batch.back().get());
    }
    batch.clear();
  }
  state.SetItemsProcessed(state.iterations() * kAllocBatch);
}

void BM_TaskAllocArena(benchmark::State& state) {
  for (auto _ : state) {
    SlabArena<Task> arena;
    for (int i = 0; i < kAllocBatch; ++i) {
      benchmark::DoNotOptimize(arena.Allocate());
    }
  }
  state.SetItemsProcessed(state.iterations() * kAllocBatch);
}

BENCHMARK(BM_TableSearchLinear)->RangeMultiplier(2)->Range(16, 256);
BENCHMARK(BM_TableSearchBitmap)->RangeMultiplier(2)->Range(16, 256);
BENCHMARK(BM_TaskAllocHeap);
BENCHMARK(BM_TaskAllocArena);

BENCHMARK(BM_ClockSpan)->UseManualTime();
BENCHMARK_CAPTURE(BM_Schedule, linux, SchedulerKind::kLinux)
    ->RangeMultiplier(8)->Range(8, 2048)->UseManualTime();
BENCHMARK_CAPTURE(BM_Schedule, elsc, SchedulerKind::kElsc)
    ->RangeMultiplier(8)->Range(8, 2048)->UseManualTime();
BENCHMARK_CAPTURE(BM_Schedule, heap, SchedulerKind::kHeap)
    ->RangeMultiplier(8)->Range(8, 2048)->UseManualTime();
BENCHMARK_CAPTURE(BM_Schedule, o1, SchedulerKind::kO1)
    ->RangeMultiplier(8)->Range(8, 2048)->UseManualTime();
BENCHMARK_CAPTURE(BM_ScheduleSmp4, linux, SchedulerKind::kLinux)
    ->Arg(8)->Arg(72)->Arg(512)->UseManualTime();
BENCHMARK_CAPTURE(BM_AddDel, linux, SchedulerKind::kLinux)->RangeMultiplier(8)->Range(8, 2048);
BENCHMARK_CAPTURE(BM_AddDel, elsc, SchedulerKind::kElsc)->RangeMultiplier(8)->Range(8, 2048);
BENCHMARK_CAPTURE(BM_AddDel, heap, SchedulerKind::kHeap)->RangeMultiplier(8)->Range(8, 2048);
BENCHMARK_CAPTURE(BM_AddDel, o1, SchedulerKind::kO1)->RangeMultiplier(8)->Range(8, 2048);

BENCHMARK(BM_GoodnessScanPick)->RangeMultiplier(4)->Range(8, 2048);
BENCHMARK(BM_O1BitmapPick)->RangeMultiplier(4)->Range(8, 2048);

}  // namespace
}  // namespace elsc

BENCHMARK_MAIN();
