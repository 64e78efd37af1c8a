// Tests for the discrete-event engine: clock monotonicity, deadlines,
// conditional runs, cancellation, and stop requests.

#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

namespace elsc {
namespace {

// ScheduleAfter/ScheduleAt take a callable by forwarding reference and build
// it in its queue slot; an EventCallback must be moved in.
template <typename F>
concept SchedulableAfter = requires(Engine& e, F&& f) { e.ScheduleAfter(Cycles{0}, std::forward<F>(f)); };
template <typename F>
concept SchedulableAt = requires(Engine& e, F&& f) { e.ScheduleAt(Cycles{0}, std::forward<F>(f)); };
static_assert(SchedulableAfter<EventCallback> && SchedulableAt<EventCallback>);
static_assert(!SchedulableAfter<EventCallback&> && !SchedulableAt<EventCallback&>);
static_assert(SchedulableAfter<std::function<void()>&> && SchedulableAt<std::function<void()>&>);

TEST(EngineTest, ClockStartsAtZero) {
  Engine engine;
  EXPECT_EQ(engine.Now(), 0u);
}

TEST(EngineTest, RunToCompletionAdvancesThroughEvents) {
  Engine engine;
  std::vector<Cycles> times;
  engine.ScheduleAfter(10, [&] { times.push_back(engine.Now()); });
  engine.ScheduleAfter(5, [&] { times.push_back(engine.Now()); });
  const uint64_t n = engine.RunToCompletion();
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(times, (std::vector<Cycles>{5, 10}));
  EXPECT_EQ(engine.Now(), 10u);
}

TEST(EngineTest, EventsCanScheduleMoreEvents) {
  Engine engine;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) {
      engine.ScheduleAfter(10, chain);
    }
  };
  engine.ScheduleAfter(10, chain);
  engine.RunToCompletion();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(engine.Now(), 50u);
}

TEST(EngineTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Engine engine;
  int fired = 0;
  engine.ScheduleAfter(10, [&] { ++fired; });
  engine.ScheduleAfter(100, [&] { ++fired; });
  engine.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.Now(), 50u);
  // The later event still fires on the next run.
  engine.RunUntil(200);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.Now(), 200u);
}

TEST(EngineTest, EventAtExactDeadlineFires) {
  Engine engine;
  int fired = 0;
  engine.ScheduleAfter(50, [&] { ++fired; });
  engine.RunUntil(50);
  EXPECT_EQ(fired, 1);
}

TEST(EngineTest, ScheduleAtAbsoluteTime) {
  Engine engine;
  Cycles seen = 0;
  engine.ScheduleAt(123, [&] { seen = engine.Now(); });
  engine.RunToCompletion();
  EXPECT_EQ(seen, 123u);
}

TEST(EngineTest, CancelSuppressesEvent) {
  Engine engine;
  int fired = 0;
  const EventId id = engine.ScheduleAfter(10, [&] { ++fired; });
  EXPECT_TRUE(engine.Cancel(id));
  engine.RunToCompletion();
  EXPECT_EQ(fired, 0);
}

TEST(EngineTest, RunUntilConditionStopsEarly) {
  Engine engine;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    engine.ScheduleAfter(static_cast<Cycles>(i * 10), [&] { ++fired; });
  }
  engine.RunUntilCondition([&] { return fired >= 3; }, 10000);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(engine.Now(), 30u);
}

TEST(EngineTest, StopEndsRunAfterCurrentEvent) {
  Engine engine;
  int fired = 0;
  engine.ScheduleAfter(10, [&] {
    ++fired;
    engine.Stop();
  });
  engine.ScheduleAfter(20, [&] { ++fired; });
  engine.RunUntil(1000);
  EXPECT_EQ(fired, 1);
}

TEST(EngineTest, SchedulesLvalueClosuresAndMovedCallbacks) {
  Engine engine;
  std::vector<int> order;
  const auto lvalue = [&order] { order.push_back(1); };
  std::function<void()> function = [&order] { order.push_back(2); };
  EventCallback callback = [&order] { order.push_back(3); };
  engine.ScheduleAfter(10, lvalue);
  engine.ScheduleAfter(10, function);
  engine.ScheduleAt(10, std::move(callback));
  EXPECT_FALSE(callback);  // Moved into the queue slot.
  EXPECT_TRUE(function);   // Copied: an lvalue is left as it was.
  engine.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.queue_stats().callback_heap_allocs, 0u);
}

TEST(EngineTest, EventsProcessedAccumulates) {
  Engine engine;
  for (int i = 0; i < 7; ++i) {
    engine.ScheduleAfter(static_cast<Cycles>(i + 1), [] {});
  }
  engine.RunToCompletion();
  EXPECT_EQ(engine.events_processed(), 7u);
}

}  // namespace
}  // namespace elsc
