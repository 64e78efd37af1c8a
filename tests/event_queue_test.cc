// Tests for the discrete-event queue: ordering, insertion-order stability at
// equal timestamps, cancellation, both tiers against an ordered reference,
// and the lifetime of closures built in their slots.

#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"

namespace elsc {
namespace {

constexpr uint32_t kFront = EventQueue::kFrontCapacity;

// Schedule() takes a callable, or an EventCallback rvalue; an lvalue
// EventCallback must not compile, because the type is move-only.
template <typename F>
concept Schedulable = requires(EventQueue& q, F&& f) { q.Schedule(Cycles{0}, std::forward<F>(f)); };
static_assert(Schedulable<EventCallback>);
static_assert(!Schedulable<EventCallback&>);
static_assert(!Schedulable<const EventCallback&>);
static_assert(Schedulable<std::function<void()>&>);
static_assert(Schedulable<void (*)()>);

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(30, [&] { fired.push_back(3); });
  q.Schedule(10, [&] { fired.push_back(1); });
  q.Schedule(20, [&] { fired.push_back(2); });
  while (!q.Empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimestampsFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 20; ++i) {
    q.Schedule(100, [&fired, i] { fired.push_back(i); });
  }
  while (!q.Empty()) {
    q.PopNext().fn();
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(fired[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue q;
  q.Schedule(50, [] {});
  q.Schedule(40, [] {});
  EXPECT_EQ(q.NextTime(), 40u);
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  const EventId keep = q.Schedule(10, [&] { ++fired; });
  const EventId drop = q.Schedule(20, [&] { fired += 100; });
  EXPECT_TRUE(q.Cancel(drop));
  while (!q.Empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(fired, 1);
  (void)keep;
}

TEST(EventQueueTest, CancelSameIdTwiceFails) {
  EventQueue q;
  const EventId id = q.Schedule(10, [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueueTest, CancelInvalidIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(0));
  EXPECT_FALSE(q.Cancel(12345));
}

TEST(EventQueueTest, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.Schedule(1, [] {});
  q.Schedule(2, [] {});
  EXPECT_EQ(q.Size(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.Size(), 1u);
  q.PopNext();
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, CancelledHeadIsSkipped) {
  EventQueue q;
  std::vector<int> fired;
  const EventId first = q.Schedule(10, [&] { fired.push_back(1); });
  q.Schedule(20, [&] { fired.push_back(2); });
  q.Cancel(first);
  EXPECT_EQ(q.NextTime(), 20u);
  q.PopNext().fn();
  EXPECT_EQ(fired, (std::vector<int>{2}));
}

TEST(EventQueueTest, CancelAfterFireFailsAndKeepsSizeExact) {
  // Regression: cancelling an id whose event already fired must be a no-op.
  // The old tombstone implementation treated any unseen id below the next
  // counter as pending and decremented its live count, corrupting Empty().
  EventQueue q;
  const EventId fired_id = q.Schedule(10, [] {});
  q.Schedule(20, [] {});
  q.PopNext();  // Fires (and retires) fired_id.
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_FALSE(q.Cancel(fired_id));
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_FALSE(q.Empty());
  q.PopNext();
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(q.Cancel(fired_id));
  EXPECT_EQ(q.Size(), 0u);
}

TEST(EventQueueTest, ReusedSlotGetsFreshIdentity) {
  // After a slot is recycled, the old event's id must not cancel the new
  // occupant (generation check).
  EventQueue q;
  const EventId old_id = q.Schedule(10, [] {});
  ASSERT_TRUE(q.Cancel(old_id));
  int fired = 0;
  const EventId new_id = q.Schedule(30, [&] { ++fired; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(q.Cancel(old_id));  // Stale generation.
  EXPECT_EQ(q.Size(), 1u);
  q.PopNext().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, SameTimestampOrderSurvivesInterleavedCancels) {
  // Insertion order at an equal timestamp must hold even when events
  // scheduled between the survivors are cancelled (heap removal swaps
  // arbitrary elements around internally).
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(q.Schedule(100, [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 40; i += 2) {
    EXPECT_TRUE(q.Cancel(ids[static_cast<size_t>(i)]));
  }
  while (!q.Empty()) {
    q.PopNext().fn();
  }
  ASSERT_EQ(fired.size(), 20u);
  for (size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], static_cast<int>(2 * i + 1));
  }
}

TEST(EventQueueTest, StatsCountSchedulesFiresAndCancels) {
  EventQueue q;
  const EventId a = q.Schedule(1, [] {});
  q.Schedule(2, [] {});
  q.Schedule(3, [] {});
  q.Cancel(a);
  q.PopNext();
  q.PopNext();
  const EventQueueStats& stats = q.stats();
  EXPECT_EQ(stats.scheduled, 3u);
  EXPECT_EQ(stats.fired, 2u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.max_heap_depth, 3u);
  EXPECT_EQ(stats.callback_heap_allocs, 0u);  // Small lambdas stay inline.
}

TEST(EventQueueTest, SlotsAreRecycledNotReallocated) {
  // Steady-state schedule/pop churn must not grow the slab: slot_allocs is
  // bounded by the maximum number of simultaneously pending events.
  EventQueue q;
  for (int round = 0; round < 1000; ++round) {
    q.Schedule(static_cast<Cycles>(round), [] {});
    q.Schedule(static_cast<Cycles>(round) + 1, [] {});
    q.PopNext();
    q.PopNext();
  }
  EXPECT_LE(q.stats().slot_allocs, 2u);
  EXPECT_EQ(q.stats().fired, 2000u);
}

TEST(EventQueuePropertyTest, CancellationHeavyChurnKeepsExactOrder) {
  // Heavier mix than the test below: two-thirds of events are cancelled,
  // forcing constant mid-heap removals and slot reuse, while survivors must
  // still fire in exact (time, insertion) order.
  Rng rng(7);
  for (int round = 0; round < 10; ++round) {
    EventQueue q;
    struct Expected {
      Cycles when;
      uint64_t order;
    };
    std::vector<std::pair<Expected, EventId>> live;
    uint64_t order = 0;
    for (int i = 0; i < 2000; ++i) {
      if (live.empty() || rng.NextBool(0.4)) {
        const Cycles when = rng.NextBelow(50);  // Dense times => many ties.
        const EventId id = q.Schedule(when, [] {});
        live.push_back({{when, order++}, id});
      } else {
        const size_t idx = rng.NextBelow(live.size());
        EXPECT_TRUE(q.Cancel(live[idx].second));
        live.erase(live.begin() + static_cast<long>(idx));
        // Double-cancel of the same id must fail.
        if (!live.empty() && rng.NextBool(0.1)) {
          const EventId survivor = live[rng.NextBelow(live.size())].second;
          EXPECT_TRUE(q.Cancel(survivor));
          EXPECT_FALSE(q.Cancel(survivor));
          live.erase(std::find_if(live.begin(), live.end(),
                                  [survivor](const auto& e) { return e.second == survivor; }));
        }
      }
    }
    ASSERT_EQ(q.Size(), live.size());
    std::sort(live.begin(), live.end(), [](const auto& a, const auto& b) {
      return a.first.when != b.first.when ? a.first.when < b.first.when
                                          : a.first.order < b.first.order;
    });
    for (const auto& expected : live) {
      ASSERT_FALSE(q.Empty());
      const auto fired = q.PopNext();
      EXPECT_EQ(fired.when, expected.first.when);
      EXPECT_EQ(fired.id, expected.second);
    }
    EXPECT_TRUE(q.Empty());
  }
}

TEST(EventQueuePropertyTest, RandomScheduleCancelMaintainsOrder) {
  Rng rng(42);
  for (int round = 0; round < 20; ++round) {
    EventQueue q;
    std::vector<std::pair<Cycles, EventId>> live;
    for (int i = 0; i < 500; ++i) {
      if (live.empty() || rng.NextBool(0.7)) {
        const Cycles when = rng.NextBelow(10000);
        const EventId id = q.Schedule(when, [] {});
        live.emplace_back(when, id);
      } else {
        const size_t idx = rng.NextBelow(live.size());
        EXPECT_TRUE(q.Cancel(live[idx].second));
        live.erase(live.begin() + static_cast<long>(idx));
      }
    }
    ASSERT_EQ(q.Size(), live.size());
    Cycles last = 0;
    size_t popped = 0;
    while (!q.Empty()) {
      const auto fired = q.PopNext();
      EXPECT_GE(fired.when, last);
      last = fired.when;
      ++popped;
    }
    EXPECT_EQ(popped, live.size());
  }
}

TEST(EventQueuePropertyTest, InterleavedOperationsMatchOrderedReference) {
  // Schedules, cancels and pops interleave on a monotone clock, and the queue
  // is compared with an ordered reference of (when, seq) after every single
  // operation: each pop's (when, id), Size() and NextTime(). Delays mix 0,
  // small and far values, so spilled far events later become the earliest;
  // bursts of more than kFront events at one time make ties straddle the
  // front tier and the heap; cancels aim at the newest event (usually in the
  // front tier) and at random ones (often in the heap). The tests above check
  // order only while draining, so they pass a queue that breaks a tie
  // between the tiers by time alone, or whose NextTime() reads the front
  // tier while the heap holds an earlier event; this one fails on both, and
  // on a queue that pops its front tier without comparing it to the heap's
  // root.
  for (int round = 0; round < 24; ++round) {
    const uint64_t seed = 9000 + static_cast<uint64_t>(round);
    // The queue hovers around this many pending events.
    const size_t depth = std::array<size_t, 3>{4, 3 * kFront, 12 * kFront}[round % 3];
    SCOPED_TRACE("repro: seed=" + std::to_string(seed) + " depth=" + std::to_string(depth));
    Rng rng(seed);
    EventQueue q;
    std::map<std::pair<Cycles, uint64_t>, EventId> ref;  // (when, seq) -> id.
    std::vector<EventId> retired;                         // Fired or cancelled.
    uint64_t seq = 0;
    uint64_t newest_seq = 0;
    Cycles now = 0;
    size_t peak = 0;

    const auto check = [&] {
      ASSERT_EQ(q.Size(), ref.size());
      ASSERT_EQ(q.Empty(), ref.empty());
      if (!ref.empty()) {
        ASSERT_EQ(q.NextTime(), ref.begin()->first.first);
      }
    };
    const auto schedule = [&](Cycles when) {
      ref.emplace(std::make_pair(when, seq), q.Schedule(when, [] {}));
      newest_seq = seq++;
      peak = std::max(peak, ref.size());
      check();
    };
    const auto cancel = [&](decltype(ref)::iterator it) {
      ASSERT_TRUE(q.Cancel(it->second));
      retired.push_back(it->second);
      ref.erase(it);
      check();
    };
    const auto delay = [&]() -> Cycles {
      const uint64_t kind = rng.NextBelow(100);
      if (kind < 15) {
        return 0;
      }
      return kind < 70 ? 1 + rng.NextBelow(16) : 1000 + rng.NextBelow(100000);
    };

    for (int op = 0; op < 4000; ++op) {
      if (rng.NextBelow(2 * depth) >= ref.size()) {
        if (rng.NextBool(0.1)) {
          const Cycles when = now + (rng.NextBool(0.5) ? 0 : 1 + rng.NextBelow(16));
          const uint64_t burst = kFront + 1 + rng.NextBelow(kFront);
          for (uint64_t i = 0; i < burst; ++i) {
            schedule(when);
          }
        } else {
          schedule(now + delay());
        }
      } else if (rng.NextBool(0.7)) {
        const auto fired = q.PopNext();
        const auto expected = ref.begin();
        ASSERT_EQ(fired.when, expected->first.first);
        ASSERT_EQ(fired.id, expected->second);
        ASSERT_GE(fired.when, now);
        now = fired.when;
        retired.push_back(fired.id);
        ref.erase(expected);
        check();
      } else {
        const uint64_t target = rng.NextBelow(10);
        if (target < 4) {
          // The newest event, if still pending: usually in the front tier.
          const auto newest = std::find_if(ref.begin(), ref.end(), [&](const auto& e) {
            return e.first.second == newest_seq;
          });
          if (newest != ref.end()) {
            cancel(newest);
          }
        } else if (target < 8) {
          cancel(std::next(ref.begin(), static_cast<long>(rng.NextBelow(ref.size()))));
        } else if (!retired.empty()) {
          ASSERT_FALSE(q.Cancel(retired[rng.NextBelow(retired.size())]));
          check();
        }
      }
      if (HasFatalFailure()) {
        return;  // An ASSERT inside a lambda returns from the lambda only.
      }
    }
    while (!ref.empty()) {
      const auto fired = q.PopNext();
      ASSERT_EQ(fired.when, ref.begin()->first.first);
      ASSERT_EQ(fired.id, ref.begin()->second);
      ref.erase(ref.begin());
      check();
    }
    EXPECT_EQ(q.stats().max_heap_depth, peak);
    EXPECT_EQ(q.stats().slot_allocs, peak);
    EXPECT_GT(peak, static_cast<size_t>(kFront)) << "never reached the heap";
  }
}

TEST(EventQueueTest, InSlotClosureIsDestroyedExactlyOnce) {
  // A closure built in its slot is destroyed exactly once, whichever way its
  // event leaves the queue.
  const auto token = std::make_shared<int>(0);
  {  // Fired.
    EventQueue q;
    q.Schedule(10, [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 2);
    {
      EventQueue::Fired fired = q.PopNext();
      EXPECT_EQ(token.use_count(), 2);  // Moved out of the slot, not copied.
      fired.fn();
    }
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(token.use_count(), 1);
  }
  {  // Cancelled from the front tier: a lone event stays there.
    EventQueue q;
    const EventId id = q.Schedule(10, [token] {});
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_TRUE(q.Cancel(id));
    EXPECT_EQ(token.use_count(), 1);
  }
  {  // Cancelled from the heap: kFront earlier events spill it from the front.
    EventQueue q;
    const EventId id = q.Schedule(1000, [token] {});
    for (uint32_t i = 0; i < kFront; ++i) {
      q.Schedule(i, [] {});
    }
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_TRUE(q.Cancel(id));
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(q.Size(), kFront);
  }
  {  // Still pending, in both tiers, when the queue is destroyed.
    EventQueue q;
    for (uint32_t i = 0; i < 2 * kFront; ++i) {
      q.Schedule(i, [token] {});
    }
    EXPECT_EQ(token.use_count(), 1 + 2 * static_cast<long>(kFront));
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 1);
}

TEST(EventQueueTest, ThrowingClosureLeavesTheQueueAsItWas) {
  // A closure whose copy throws while it is being built in its slot leaves
  // the queue as it was: the slot stays free, and the next event reuses it.
  struct ThrowsOnCopy {
    ThrowsOnCopy() = default;
    ThrowsOnCopy(const ThrowsOnCopy&) { throw std::runtime_error("copy"); }
    ThrowsOnCopy(ThrowsOnCopy&&) noexcept = default;
    void operator()() const {}
  };
  EventQueue q;
  const ThrowsOnCopy closure;
  EXPECT_THROW(q.Schedule(10, closure), std::runtime_error);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.stats().scheduled, 0u);
  q.Schedule(20, [] {});
  EXPECT_EQ(q.stats().slot_allocs, 1u);
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.PopNext().when, 20u);
}

TEST(EventQueueTest, OversizedClosureCountsOneHeapAllocation) {
  // A closure too big for the inline buffer takes one heap block, counted
  // once, whether it is built in the slot or moves in as an EventCallback.
  const auto token = std::make_shared<int>(0);
  const std::array<char, EventCallback::kInlineSize> pad{};
  {
    EventQueue q;
    q.Schedule(5, [token, pad] { *token += pad.size(); });
    EXPECT_EQ(q.stats().callback_heap_allocs, 1u);
    EXPECT_EQ(token.use_count(), 2);
    q.PopNext().fn();
    EXPECT_EQ(token.use_count(), 1);

    EventCallback moved = [token, pad] {};
    ASSERT_TRUE(moved.heap_allocated());
    const EventId id = q.Schedule(6, std::move(moved));
    EXPECT_FALSE(moved);
    EXPECT_EQ(q.stats().callback_heap_allocs, 2u);
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_TRUE(q.Cancel(id));
    EXPECT_EQ(token.use_count(), 1);

    q.Schedule(7, [token, pad] {});
    EXPECT_EQ(q.stats().callback_heap_allocs, 3u);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, static_cast<int>(EventCallback::kInlineSize));
}

}  // namespace
}  // namespace elsc
