// Sharded parallel discrete-event mode (src/api/scale.h): the determinism
// contract and the memory/streaming accounting.
//
// The load-bearing tests are the golden-digest ones: a sharded Volano
// federation must be bit-identical at shard counts 1/2/4 (the worker-thread
// axis) and at ELSC_BENCH_JOBS 1/2/4 (the harness fan-out axis, exercised by
// running sweep cells through the supervised matrix at different job
// counts and byte-comparing the rendered JSON).

#include "src/api/scale.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/harness/supervisor.h"

namespace elsc {
namespace {

// Small enough to run in milliseconds, big enough that every moving part is
// exercised: 4 nodes, federation gossip on, several lock-step windows.
ScaleConfig TinyConfig() {
  ScaleConfig config;
  config.rooms = 4;
  config.rooms_per_node = 1;
  config.chat.users_per_room = 4;
  config.chat.messages_per_user = 4;
  config.seed = 7;
  return config;
}

uint64_t ExpectedDeliveries(const ScaleConfig& config) {
  return static_cast<uint64_t>(config.rooms) *
         static_cast<uint64_t>(config.chat.users_per_room) *
         static_cast<uint64_t>(config.chat.users_per_room) *
         static_cast<uint64_t>(config.chat.messages_per_user);
}

TEST(ScaleTest, CompletesAndDeliversEveryMessage) {
  const ScaleConfig config = TinyConfig();
  const ScaleRun run = RunShardedVolano(config, 1);
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.nodes, 4);
  EXPECT_EQ(run.messages_delivered, ExpectedDeliveries(config));
  EXPECT_GT(run.windows, 0u);
  EXPECT_GT(run.throughput, 0.0);
  // Federation gossip actually flowed, and nothing was lost to full or
  // closed inboxes in this gentle scenario.
  EXPECT_GT(run.fed.beacons_sent, 0u);
  EXPECT_EQ(run.fed.beacons_received, run.fabric.routed);
  EXPECT_EQ(run.fed.inbox_overflows, 0u);
  EXPECT_EQ(run.fed.late_writes, 0u);
  EXPECT_EQ(run.fabric.refused, 0u);
  EXPECT_FALSE(run.stats.failed);
}

TEST(ScaleTest, GoldenDigestBitIdenticalAcrossShardCounts) {
  const ScaleConfig config = TinyConfig();
  const ScaleRun one = RunShardedVolano(config, 1);
  ASSERT_TRUE(one.completed);
  ASSERT_NE(one.digest, 0u);
  const std::string golden = ScaleRunSignature(one);
  for (const int shards : {2, 4}) {
    const ScaleRun run = RunShardedVolano(config, shards);
    EXPECT_EQ(run.digest, one.digest) << "shards=" << shards;
    EXPECT_EQ(ScaleRunSignature(run), golden) << "shards=" << shards;
    EXPECT_EQ(run.shards, shards);  // Recorded, but outside the digest.
  }
}

TEST(ScaleTest, JsonBitIdenticalAcrossShardAndJobCounts) {
  // The bench path: one sweep cell per shard count, fanned out through the
  // supervised matrix — the ELSC_BENCH_JOBS axis. The rendered JSON (timing
  // block off) must be byte-identical at any job count.
  const std::vector<int> shard_counts = {1, 2, 4};
  auto run_cells = [&](int jobs) {
    SupervisorOptions options;  // Defaults: no watchdog, no journal.
    SupervisedRun<ScaleCell> run = RunSupervised(
        options, shard_counts.size(),
        [&](size_t i) {
          ScaleCell cell;
          cell.config = TinyConfig();
          cell.run = RunShardedVolano(cell.config, shard_counts[i]);
          return cell;
        },
        CellCodec<ScaleCell>{}, jobs);
    EXPECT_TRUE(run.AllOk());
    return RenderScaleJson(run.results, /*seed=*/7, /*include_timing=*/false);
  };
  const std::string jobs1 = run_cells(1);
  EXPECT_FALSE(jobs1.empty());
  EXPECT_EQ(run_cells(2), jobs1);
  EXPECT_EQ(run_cells(4), jobs1);
  // All three cells simulated the same scenario, so the same digest value
  // appears once per cell.
  const size_t first_digest = jobs1.find("\"digest\": \"");
  ASSERT_NE(first_digest, std::string::npos);
  const std::string digest = jobs1.substr(first_digest, 30);
  size_t occurrences = 0;
  for (size_t pos = jobs1.find(digest); pos != std::string::npos;
       pos = jobs1.find(digest, pos + 1)) {
    ++occurrences;
  }
  EXPECT_EQ(occurrences, shard_counts.size());
}

TEST(ScaleTest, ShardCountIsClampedToNodes) {
  const ScaleConfig config = TinyConfig();
  const ScaleRun over = RunShardedVolano(config, 64);
  EXPECT_EQ(over.shards, config.nodes());
  const ScaleRun zero = RunShardedVolano(config, 0);
  EXPECT_EQ(zero.shards, 1);
  EXPECT_EQ(over.digest, zero.digest);
}

TEST(ScaleTest, RoomsPerNodeIsScenarioStructure) {
  // Grouping rooms onto fewer nodes changes the simulated system (co-located
  // rooms share a scheduler) — it must still complete, with the same total
  // deliveries, on half the nodes.
  ScaleConfig config = TinyConfig();
  config.rooms_per_node = 2;
  EXPECT_EQ(config.nodes(), 2);
  const ScaleRun run = RunShardedVolano(config, 2);
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.nodes, 2);
  EXPECT_EQ(run.messages_delivered, ExpectedDeliveries(config));
}

TEST(ScaleTest, GossipDisabledRunsIndependentNodes) {
  ScaleConfig config = TinyConfig();
  config.gossip_period = 0;
  const ScaleRun one = RunShardedVolano(config, 1);
  EXPECT_TRUE(one.completed);
  EXPECT_EQ(one.messages_delivered, ExpectedDeliveries(config));
  EXPECT_EQ(one.fed.beacons_sent, 0u);
  EXPECT_EQ(one.fabric.emitted, 0u);
  const ScaleRun four = RunShardedVolano(config, 4);
  EXPECT_EQ(four.digest, one.digest);
}

TEST(ScaleTest, MemoryHighWaterMarksArePopulated) {
  const ScaleConfig config = TinyConfig();
  const ScaleRun run = RunShardedVolano(config, 2);
  // Concurrent peaks were sampled at barriers while the federation ran.
  EXPECT_GT(run.peak_live_tasks, 0u);
  EXPECT_EQ(run.peak_live_nodes, 4u);
  EXPECT_GT(run.peak_task_arena_bytes, 0u);
  EXPECT_GT(run.peak_live_sockets, 0u);
  // The folded per-node totals bound the concurrent peaks from above.
  EXPECT_GE(run.stats.memory.task_arena_bytes, run.peak_task_arena_bytes);
  EXPECT_GE(run.stats.machine.peak_live_tasks, run.peak_live_tasks);
  EXPECT_GT(run.stats.memory.task_arena_chunks, 0u);
  // Every chat participant existed at some point; peaks cannot exceed the
  // total task population but must cover the steady-state chat threads.
  EXPECT_LE(run.peak_live_tasks, run.stats.machine.tasks_created);
}

TEST(ScaleTest, DeadlineDeclaresFailureDeterministically) {
  ScaleConfig config = TinyConfig();
  config.deadline = config.window * 2;  // Far too tight for the chat.
  const ScaleRun a = RunShardedVolano(config, 1);
  EXPECT_FALSE(a.completed);
  EXPECT_TRUE(a.stats.failed);
  EXPECT_FALSE(a.stats.failure.empty());
  // Failure is part of the deterministic result, not a race: same digest at
  // any shard count.
  const ScaleRun b = RunShardedVolano(config, 4);
  EXPECT_EQ(b.digest, a.digest);
}

// Literal goldens. Every other test here compares runs against each other,
// so a change that moves every digest the same way would pass them; these
// pin the full signature. Task and arena layout stay out of it (arena bytes
// are in neither the digest nor the signature). The engine's event counts
// are the trailing events: field (EngineDigest) and nowhere else, so an
// engine-only change, such as fusing two hops into one event, moves that
// field and leaves scale:<hash> alone. A change
// that moves these strings must re-record them with a written reason.
TEST(ScaleTest, PinnedSignatures) {
  EXPECT_EQ(ScaleRunSignature(RunShardedVolano(TinyConfig(), 1)),
            "scale:6202879e4c4ddb69|nodes:4|windows:6|sent:64|delivered:256|"
            "beacons:4/4|drops:0+0|peak_tasks:67|"
            "elapsed:0x1.eb851eb851eb8p-5|completed:1|crashes:0|restarts:0|"
            "degraded:0|lost:0|retx:0+0|dupdrop:0|acks:0/0|"
            "goodput:0x1.0aaaaaaaaaaabp+12|events:4520,4503,13,0,16,4");

  ScaleConfig deadline = TinyConfig();
  deadline.deadline = deadline.window * 2;
  EXPECT_EQ(ScaleRunSignature(RunShardedVolano(deadline, 2)),
            "scale:16c143a9b947bbc4|nodes:4|windows:2|sent:38|delivered:99|"
            "beacons:0/0|drops:0+0|peak_tasks:67|"
            "elapsed:0x1.47ae147ae147bp-6|completed:0|crashes:0|restarts:0|"
            "degraded:0|lost:0|retx:0+0|dupdrop:0|acks:0/0|goodput:0x1.356p+12|"
            "events:2885,2869,4,0,16,4|failure:scale deadline "
            "exceeded: 4 node(s) still live at window 2");

  ScaleConfig no_gossip = TinyConfig();
  no_gossip.gossip_period = 0;
  EXPECT_EQ(ScaleRunSignature(RunShardedVolano(no_gossip, 4)),
            "scale:d665152bf3c005b1|nodes:4|windows:4|sent:64|delivered:256|"
            "beacons:0/0|drops:0+0|peak_tasks:59|"
            "elapsed:0x1.47ae147ae147bp-5|completed:1|crashes:0|restarts:0|"
            "degraded:0|lost:0|retx:0+0|dupdrop:0|acks:0/0|goodput:0x1.9p+12|"
            "events:4376,4361,11,0,12,3");
}

TEST(ScaleTest, SignatureNamesTheLoadBearingFields) {
  const ScaleRun run = RunShardedVolano(TinyConfig(), 1);
  const std::string sig = ScaleRunSignature(run);
  EXPECT_NE(sig.find("scale:"), std::string::npos);
  EXPECT_NE(sig.find("nodes:4"), std::string::npos);
  EXPECT_NE(sig.find("completed:1"), std::string::npos);
}

}  // namespace
}  // namespace elsc
