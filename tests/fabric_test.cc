// FabricRouter: the deterministic inter-node message queue of the sharded
// simulation mode. These tests pin the determinism contract the golden
// digests in scale_test.cc rely on: drain order (node index, then emission
// order), arrival stamping (sent_at + latency, strictly after the barrier),
// and the close/drop accounting.

#include "src/sim/fabric.h"

#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/base/time_units.h"
#include "src/faults/fault_plan.h"

namespace elsc {
namespace {

struct Recorded {
  FabricMessage msg;
  Cycles arrival = 0;
};

// Sink that appends every delivery, optionally refusing some destinations.
struct RecordingSink {
  std::vector<Recorded> deliveries;
  int refuse_dst = -1;

  FabricRouter::Sink fn() {
    return [this](const FabricMessage& msg, Cycles arrival) {
      if (msg.dst_node == refuse_dst) {
        return FabricRouter::Delivery::kRefused;
      }
      deliveries.push_back({msg, arrival});
      return FabricRouter::Delivery::kDelivered;
    };
  }
};

Message Payload(uint64_t id) {
  Message m;
  m.id = id;
  return m;
}

TEST(FabricTest, DrainsLanesInNodeIndexThenEmissionOrder) {
  FabricRouter router(3, /*window=*/100, /*latency=*/100);
  // Emit out of node order: node 2 first, then 0 twice, then 1.
  router.Emit(2, 0, 10, Payload(20));
  router.Emit(0, 1, 30, Payload(1));
  router.Emit(0, 2, 20, Payload(2));  // Later emission, earlier sent_at: kept.
  router.Emit(1, 2, 40, Payload(10));

  RecordingSink sink;
  router.Exchange(/*barrier_time=*/100, sink.fn());

  ASSERT_EQ(sink.deliveries.size(), 4u);
  // Lane 0 drains first (both messages, in emission order), then 1, then 2.
  EXPECT_EQ(sink.deliveries[0].msg.payload.id, 1u);
  EXPECT_EQ(sink.deliveries[1].msg.payload.id, 2u);
  EXPECT_EQ(sink.deliveries[2].msg.payload.id, 10u);
  EXPECT_EQ(sink.deliveries[3].msg.payload.id, 20u);
  // Per-source sequence numbers count emissions within the lane.
  EXPECT_EQ(sink.deliveries[0].msg.seq, 1u);
  EXPECT_EQ(sink.deliveries[1].msg.seq, 2u);
  EXPECT_EQ(sink.deliveries[2].msg.seq, 1u);
}

TEST(FabricTest, ArrivalIsSentAtPlusLatencyStrictlyAfterBarrier) {
  FabricRouter router(2, /*window=*/100, /*latency=*/250);
  router.Emit(0, 1, 1, Payload(1));     // Earliest possible emission.
  router.Emit(1, 0, 100, Payload(2));   // Emission exactly at the barrier.

  RecordingSink sink;
  router.Exchange(/*barrier_time=*/100, sink.fn());

  ASSERT_EQ(sink.deliveries.size(), 2u);
  EXPECT_EQ(sink.deliveries[0].arrival, 251u);
  EXPECT_EQ(sink.deliveries[1].arrival, 350u);
  for (const Recorded& r : sink.deliveries) {
    EXPECT_GT(r.arrival, 100u);  // The conservative rule, per message.
  }
}

TEST(FabricTest, ZeroLatencyDefaultsToOneWindow) {
  FabricRouter router(2, /*window=*/64, /*latency=*/0);
  EXPECT_EQ(router.latency(), 64u);
}

TEST(FabricTest, LanesClearBetweenExchanges) {
  FabricRouter router(2, 100, 100);
  router.Emit(0, 1, 50, Payload(1));
  RecordingSink sink;
  router.Exchange(100, sink.fn());
  router.Exchange(200, sink.fn());  // Nothing new: no re-delivery.
  EXPECT_EQ(sink.deliveries.size(), 1u);
  EXPECT_EQ(router.stats().exchanges, 2u);
  EXPECT_EQ(router.stats().emitted, 1u);
}

TEST(FabricTest, RefusedDeliveriesAreCounted) {
  FabricRouter router(2, 100, 100);
  router.Emit(0, 1, 10, Payload(1));
  router.Emit(1, 0, 10, Payload(2));
  RecordingSink sink;
  sink.refuse_dst = 1;  // Node 1 is gone.
  router.Exchange(100, sink.fn());
  EXPECT_EQ(router.stats().routed, 1u);
  EXPECT_EQ(router.stats().refused, 1u);
  ASSERT_EQ(sink.deliveries.size(), 1u);
  EXPECT_EQ(sink.deliveries[0].msg.payload.id, 2u);
}

TEST(FabricTest, CloseDropsSubsequentDrains) {
  FabricRouter router(2, 100, 100);
  router.Emit(0, 1, 50, Payload(1));
  router.Close();
  RecordingSink sink;
  router.Exchange(100, sink.fn());
  EXPECT_TRUE(sink.deliveries.empty());
  EXPECT_EQ(router.stats().dropped_closed, 1u);
  EXPECT_EQ(router.stats().routed, 0u);
  EXPECT_EQ(router.stats().emitted, 1u);
}

TEST(FabricTest, BacklogHighWaterTracksDeepestWindow) {
  FabricRouter router(2, 100, 100);
  router.Emit(0, 1, 10, Payload(1));
  RecordingSink sink;
  router.Exchange(100, sink.fn());
  EXPECT_EQ(router.stats().max_window_backlog, 1u);
  router.Emit(0, 1, 110, Payload(2));
  router.Emit(0, 1, 120, Payload(3));
  router.Emit(1, 0, 130, Payload(4));
  router.Exchange(200, sink.fn());
  EXPECT_EQ(router.stats().max_window_backlog, 3u);
  router.Exchange(300, sink.fn());  // Empty window: high-water unchanged.
  EXPECT_EQ(router.stats().max_window_backlog, 3u);
}

TEST(FabricTest, ConcurrentEmitsFromDistinctSourcesDrainAsIfSerial) {
  // The single-writer-lane contract: each source node's shard thread is the
  // only writer of that node's lane, so concurrent Emit calls from
  // *different* sources race on nothing (run under TSan via
  // scripts/ci_sanitize.sh) and the drain is identical to a serial feed.
  constexpr int kNodes = 8;
  constexpr uint64_t kPerSource = 64;
  auto feed_one = [](FabricRouter& router, int src) {
    for (uint64_t i = 0; i < kPerSource; ++i) {
      router.Emit(src, (src + 1) % kNodes, 10 + i,
                  Payload(static_cast<uint64_t>(src) * 1000 + i));
    }
  };

  FabricRouter concurrent(kNodes, /*window=*/100, /*latency=*/100);
  {
    std::vector<std::thread> writers;
    for (int src = 0; src < kNodes; ++src) {
      writers.emplace_back([&concurrent, src, &feed_one] { feed_one(concurrent, src); });
    }
    for (std::thread& t : writers) {
      t.join();
    }
  }
  FabricRouter serial(kNodes, 100, 100);
  for (int src = 0; src < kNodes; ++src) {
    feed_one(serial, src);
  }

  RecordingSink got, want;
  concurrent.Exchange(100, got.fn());
  serial.Exchange(100, want.fn());
  ASSERT_EQ(got.deliveries.size(), kNodes * kPerSource);
  ASSERT_EQ(got.deliveries.size(), want.deliveries.size());
  for (size_t i = 0; i < got.deliveries.size(); ++i) {
    EXPECT_EQ(got.deliveries[i].msg.payload.id, want.deliveries[i].msg.payload.id);
    EXPECT_EQ(got.deliveries[i].msg.seq, want.deliveries[i].msg.seq);
    EXPECT_EQ(got.deliveries[i].arrival, want.deliveries[i].arrival);
  }
  EXPECT_EQ(concurrent.stats().emitted, kNodes * kPerSource);
}

TEST(FabricTest, LaneCapacityBoundsBacklogAndCountsOverflow) {
  FabricRouter router(2, 100, 100);
  router.SetLaneCapacity(3);
  for (uint64_t i = 1; i <= 5; ++i) {
    router.Emit(0, 1, 10 + i, Payload(i));
  }
  RecordingSink sink;
  router.Exchange(100, sink.fn());
  // First three queue; the overflow is dropped with its cause counted, and
  // every emission — kept or dropped — still shows up in `emitted`.
  ASSERT_EQ(sink.deliveries.size(), 3u);
  EXPECT_EQ(sink.deliveries[0].msg.payload.id, 1u);
  EXPECT_EQ(sink.deliveries[2].msg.payload.id, 3u);
  EXPECT_EQ(router.stats().dropped_lane_overflow, 2u);
  EXPECT_EQ(router.stats().emitted, 5u);
  EXPECT_EQ(router.stats().routed, 3u);
  // The dropped emissions still consumed sequence numbers: the receiver sees
  // a gap it can detect, not silently renumbered messages.
  router.Emit(0, 1, 150, Payload(6));
  router.Exchange(200, sink.fn());
  ASSERT_EQ(sink.deliveries.size(), 4u);
  EXPECT_EQ(sink.deliveries[3].msg.seq, 6u);
}

TEST(FabricTest, ArmedPlanDropsAndDuplicatesDeterministically) {
  FederationFaultPlan plan;
  plan.seed = 99;
  plan.loss_rate = 0.3;
  plan.dup_rate = 0.2;
  auto run = [&plan]() {
    FabricRouter router(2, 100, 100);
    router.ArmFaults(&plan);
    for (uint64_t i = 1; i <= 200; ++i) {
      router.Emit(0, 1, 10, Payload(i));
    }
    RecordingSink sink;
    router.Exchange(100, sink.fn());
    return std::make_pair(router.stats(), sink.deliveries);
  };
  auto [stats, deliveries] = run();
  EXPECT_GT(stats.dropped_loss, 0u);
  EXPECT_GT(stats.duplicated, 0u);
  // Conservation over unique messages (duplicates are counted separately):
  EXPECT_EQ(stats.emitted, stats.routed + stats.dropped_loss);
  EXPECT_EQ(deliveries.size(), stats.routed + stats.duplicated);
  // The plan is keyed by (src, dst, seq): a second identical run is
  // bit-identical, fault decisions included.
  auto [stats2, deliveries2] = run();
  EXPECT_EQ(stats2.dropped_loss, stats.dropped_loss);
  EXPECT_EQ(stats2.duplicated, stats.duplicated);
  ASSERT_EQ(deliveries2.size(), deliveries.size());
  for (size_t i = 0; i < deliveries.size(); ++i) {
    EXPECT_EQ(deliveries2[i].msg.payload.id, deliveries[i].msg.payload.id);
  }
}

TEST(FabricTest, PartitionedLinkDropsOnlyDuringItsWindows) {
  // Force a partition on link 0->1 by scanning seeds for one whose plan
  // partitions that link at window 1; dropping is then window-scoped.
  FederationFaultPlan plan;
  plan.link_partition_rate = 1.0;
  plan.partition_window_min = 1;
  plan.partition_window_span = 1;  // Partition starts exactly at window 1.
  plan.partition_duration_min = 2;
  plan.partition_duration_span = 1;  // Lasts windows 1 and 2.
  plan.seed = 7;
  ASSERT_TRUE(plan.LinkPartitioned(0, 1, 1));
  ASSERT_TRUE(plan.LinkPartitioned(0, 1, 2));
  ASSERT_FALSE(plan.LinkPartitioned(0, 1, 3));

  FabricRouter router(2, 100, 100);
  router.ArmFaults(&plan);
  RecordingSink sink;
  router.Exchange(100, sink.fn());  // Window 1 boundary is barrier 100.
  router.Emit(0, 1, 150, Payload(1));
  router.Exchange(200, sink.fn());  // barrier/window = 2: still partitioned.
  EXPECT_EQ(router.stats().dropped_partition, 1u);
  EXPECT_TRUE(sink.deliveries.empty());
  router.Emit(0, 1, 350, Payload(2));
  router.Exchange(400, sink.fn());  // Window 4: healed.
  ASSERT_EQ(sink.deliveries.size(), 1u);
  EXPECT_EQ(sink.deliveries[0].msg.payload.id, 2u);
}

TEST(FabricTest, DownDeliveriesCountAsCrashedDrops) {
  FabricRouter router(2, 100, 100);
  router.Emit(0, 1, 10, Payload(1));
  RecordingSink sink;
  router.Exchange(100, [&sink](const FabricMessage& msg, Cycles arrival) {
    (void)msg;
    (void)arrival;
    return FabricRouter::Delivery::kDown;
  });
  EXPECT_EQ(router.stats().dropped_crashed, 1u);
  EXPECT_EQ(router.stats().routed, 0u);
}

TEST(FabricTest, IdenticalEmissionsYieldIdenticalDrains) {
  // Two routers fed the same emission sequence drain identically — the
  // property the sharded runner's bit-identical digests reduce to.
  auto feed = [](FabricRouter& router) {
    router.Emit(1, 0, 15, Payload(7));
    router.Emit(0, 1, 25, Payload(8));
    router.Emit(2, 1, 35, Payload(9));
  };
  FabricRouter a(3, 100, 150), b(3, 100, 150);
  feed(a);
  feed(b);
  RecordingSink sa, sb;
  a.Exchange(100, sa.fn());
  b.Exchange(100, sb.fn());
  ASSERT_EQ(sa.deliveries.size(), sb.deliveries.size());
  for (size_t i = 0; i < sa.deliveries.size(); ++i) {
    EXPECT_EQ(sa.deliveries[i].msg.payload.id, sb.deliveries[i].msg.payload.id);
    EXPECT_EQ(sa.deliveries[i].msg.seq, sb.deliveries[i].msg.seq);
    EXPECT_EQ(sa.deliveries[i].arrival, sb.deliveries[i].arrival);
  }
}

}  // namespace
}  // namespace elsc
