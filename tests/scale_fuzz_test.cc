// Generated federations (src/api/scale.h): each seed draws a small
// ScaleConfig — rooms and rooms per node (the last node may take a
// remainder), chat size, fabric latency as a multiple of the window, the
// gossip period, a fabric lane bound and, for about half the seeds,
// FederationChaosPlan(seed) — runs it on 1, 2 and 3 workers, and checks the
// determinism contract and the conservation laws the code states:
//   * the same digest and ScaleRunSignature at every worker count;
//   * fabric: emitted = routed + refused + the sum of dropped_* (a duplicate
//     is an extra delivery of a counted message, so `duplicated` stays out,
//     src/sim/fabric.cc);
//   * a completed run delivers exactly rooms * users^2 * msgs;
//   * deliveries_lost = beacons_sent - beacons_received, on runs where no
//     node crashed.
// A failing seed prints one line: `repro: RunScaleFuzz(seed=N) <config>:
// <law>`.

#include <string>

#include "gtest/gtest.h"
#include "src/api/scale.h"
#include "src/base/rng.h"
#include "src/base/string_util.h"

namespace elsc {
namespace {

constexpr uint64_t kSeeds = 60;

ScaleConfig DrawConfig(uint64_t seed) {
  Rng rng(seed);
  ScaleConfig config;
  config.seed = seed;
  // Short enough that most chats outlive a few gossip periods, so the fabric
  // carries traffic in most gossiping configs.
  config.window = MsToCycles(2);
  config.rooms = static_cast<int>(rng.NextInRange(2, 12));
  config.rooms_per_node = static_cast<int>(rng.NextInRange(1, 3));
  config.chat.users_per_room = static_cast<int>(rng.NextInRange(2, 5));
  config.chat.messages_per_user = static_cast<int>(rng.NextInRange(1, 6));
  config.fabric_latency = config.window * static_cast<Cycles>(rng.NextInRange(1, 3));
  config.gossip_period =
      rng.NextBool(0.25) ? 0 : config.window * static_cast<Cycles>(rng.NextInRange(1, 4));
  config.fabric_lane_capacity = rng.NextBool(0.5) ? 0 : static_cast<size_t>(rng.NextInRange(1, 8));
  if (rng.NextBool(0.5)) {
    config.faults = FederationChaosPlan(seed);
  }
  return config;
}

std::string Describe(const ScaleConfig& c) {
  return StrFormat("rooms=%d per_node=%d users=%d msgs=%d latency=%llux gossip=%llux lane=%zu "
                   "chaos=%d",
                   c.rooms, c.rooms_per_node, c.chat.users_per_room, c.chat.messages_per_user,
                   static_cast<unsigned long long>(c.fabric_latency / c.window),
                   static_cast<unsigned long long>(c.gossip_period / c.window),
                   c.fabric_lane_capacity, c.faults.Enabled() ? 1 : 0);
}

// Runs seed's config at 1, 2 and 3 workers and leaves the 1-worker run in
// *out. Returns "" when every check holds, else a one-line repro naming the
// seed, the config and the law.
std::string RunScaleFuzz(uint64_t seed, ScaleRun* out) {
  const ScaleConfig config = DrawConfig(seed);
  auto repro = [&](const std::string& what) {
    return StrFormat("repro: RunScaleFuzz(seed=%llu) %s: %s",
                     static_cast<unsigned long long>(seed), Describe(config).c_str(),
                     what.c_str());
  };
  const ScaleRun& run = *out = RunShardedVolano(config, 1);
  const std::string signature = ScaleRunSignature(run);
  for (const int workers : {2, 3}) {
    const ScaleRun other = RunShardedVolano(config, workers);
    if (other.digest != run.digest || ScaleRunSignature(other) != signature) {
      return repro(StrFormat("%d workers: %s, 1 worker: %s", workers,
                             ScaleRunSignature(other).c_str(), signature.c_str()));
    }
  }
  if (!run.completed || run.stats.failed) {
    return repro("did not complete: " + signature);
  }
  const uint64_t users = static_cast<uint64_t>(config.chat.users_per_room);
  const uint64_t want =
      static_cast<uint64_t>(config.rooms) * users * users *
      static_cast<uint64_t>(config.chat.messages_per_user);
  if (run.messages_delivered != want) {
    return repro(StrFormat("delivered %llu, want rooms*users^2*msgs = %llu",
                           static_cast<unsigned long long>(run.messages_delivered),
                           static_cast<unsigned long long>(want)));
  }
  const FabricStats& f = run.fabric;
  const uint64_t accounted = f.routed + f.refused + f.dropped_closed + f.dropped_loss +
                             f.dropped_partition + f.dropped_crashed +
                             f.dropped_lane_overflow;
  if (f.emitted != accounted) {
    return repro(StrFormat("fabric emitted %llu != routed + refused + dropped_* = %llu",
                           static_cast<unsigned long long>(f.emitted),
                           static_cast<unsigned long long>(accounted)));
  }
  // A restarted receiver can process again a beacon its dead incarnation
  // processed, so beacons_received may exceed beacons_sent once a node has
  // crashed; the law is checked where no node did.
  if (run.node_crashes == 0 &&
      (run.fed.beacons_received > run.fed.beacons_sent ||
       run.deliveries_lost != run.fed.beacons_sent - run.fed.beacons_received)) {
    return repro(StrFormat("deliveries_lost %llu != beacons_sent %llu - beacons_received %llu",
                           static_cast<unsigned long long>(run.deliveries_lost),
                           static_cast<unsigned long long>(run.fed.beacons_sent),
                           static_cast<unsigned long long>(run.fed.beacons_received)));
  }
  return "";
}

TEST(ScaleFuzzTest, GeneratedConfigsAgreeAcrossWorkerCountsAndConserve) {
  // Summed over the seeds, to show the laws met every axis the generator
  // varies: traffic, loss, duplicates, lane overflow, crashes, a remainder
  // node, gossip off and each latency multiple.
  FabricStats fabric;
  uint64_t crashes = 0;
  bool remainder = false;
  bool quiet = false;
  bool latencies[4] = {};
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ScaleRun run;
    ASSERT_EQ(RunScaleFuzz(seed, &run), "");
    AddCounters(&fabric, run.fabric, kFabricCounters);
    crashes += run.node_crashes;
    const ScaleConfig c = DrawConfig(seed);
    remainder |= c.rooms % c.rooms_per_node != 0;
    quiet |= c.gossip_period == 0;
    latencies[c.fabric_latency / c.window] = true;
  }
  EXPECT_GT(fabric.routed, 0u);
  EXPECT_GT(fabric.dropped_loss, 0u);
  EXPECT_GT(fabric.duplicated, 0u);
  EXPECT_GT(fabric.dropped_lane_overflow, 0u);
  EXPECT_GT(crashes, 0u);
  EXPECT_TRUE(remainder && quiet);
  EXPECT_TRUE(latencies[1] && latencies[2] && latencies[3]);
}

}  // namespace
}  // namespace elsc
