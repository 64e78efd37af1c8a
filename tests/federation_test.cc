// The sharded federation's failure model (src/api/scale.h +
// src/faults/fault_plan.h FederationFaultPlan): deterministic node
// crash/restart, lossy fabric, and the ack/retransmit recovery protocol.
//
// The load-bearing claims: (1) a chaos-armed run is exactly as deterministic
// as a fault-free one — bit-identical digests at shard counts 1/2/4 and
// byte-identical JSON at ELSC_BENCH_JOBS 1/2/4; (2) the recovery protocol
// has teeth — under crash + loss, retransmission strictly reduces
// deliveries_lost versus the no-retransmit control; (3) crashes conserve
// chat work — banked finished rooms plus re-run rooms add up to exactly the
// scenario's expected deliveries; (4) fault-free runs render the same
// layout with zero fault counters, and the drops of a bounded fabric lane
// show without any plan. Byte stability is pinned by literal signatures:
// the armed ones in PinnedSignatures below, the fault-free ones in
// scale_test.cc.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/api/scale.h"
#include "src/base/string_util.h"
#include "src/harness/supervisor.h"

namespace elsc {
namespace {

// Mirror of scale_test's TinyConfig: small enough for milliseconds, big
// enough that every moving part is exercised.
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

// The chaos scenario the determinism tests run: every node crashes once,
// early, and the fabric is moderately lossy — maximum lifecycle churn in a
// tiny scenario.
ScaleConfig ChaosConfig() {
  ScaleConfig config = TinyConfig();
  // Enough chat depth that every node is still alive in its crash window
  // (windows 2-5) — the crash-rate-1.0 tests below rely on that.
  config.chat.messages_per_user = 16;
  config.faults = FederationChaosPlan(/*seed=*/11);
  config.faults.node_crash_rate = 1.0;
  config.faults.crash_window_min = 2;
  config.faults.crash_window_span = 4;
  config.faults.down_windows_min = 1;
  config.faults.down_windows_span = 3;
  return config;
}

TEST(FederationFaultPlanTest, InjectionIsAPureFunctionOfTheConfig) {
  const FederationFaultPlan plan = FederationChaosPlan(42);
  const FederationFaultPlan again = FederationChaosPlan(42);
  for (int node = 0; node < 16; ++node) {
    EXPECT_EQ(plan.NodeCrashes(node), again.NodeCrashes(node));
    EXPECT_EQ(plan.CrashWindow(node), again.CrashWindow(node));
    EXPECT_EQ(plan.RestartWindow(node), again.RestartWindow(node));
    EXPECT_GT(plan.RestartWindow(node), plan.CrashWindow(node));
  }
  for (uint64_t seq = 1; seq <= 64; ++seq) {
    EXPECT_EQ(plan.DropMessage(0, 1, seq), again.DropMessage(0, 1, seq));
    EXPECT_EQ(plan.DuplicateMessage(0, 1, seq), again.DuplicateMessage(0, 1, seq));
  }
  // A different seed gives a different schedule somewhere in this range.
  const FederationFaultPlan other = FederationChaosPlan(43);
  bool diverged = false;
  for (int node = 0; node < 16 && !diverged; ++node) {
    diverged = plan.NodeCrashes(node) != other.NodeCrashes(node) ||
               plan.CrashWindow(node) != other.CrashWindow(node);
  }
  for (uint64_t seq = 1; seq <= 64 && !diverged; ++seq) {
    diverged = plan.DropMessage(0, 1, seq) != other.DropMessage(0, 1, seq);
  }
  EXPECT_TRUE(diverged);
  // Default-constructed plans are inert; the chaos preset is not.
  EXPECT_FALSE(FederationFaultPlan{}.Enabled());
  EXPECT_TRUE(plan.Enabled());
}

TEST(FederationTest, ChaosArmedRunCompletesWithCrashesAndRestarts) {
  const ScaleConfig config = ChaosConfig();
  const ScaleRun run = RunShardedVolano(config, 1);
  EXPECT_TRUE(run.completed);
  EXPECT_TRUE(config.faults.Enabled());
  // Every node crashed once (crash rate 1.0) and came back.
  EXPECT_EQ(run.node_crashes, static_cast<uint64_t>(config.nodes()));
  EXPECT_EQ(run.node_restarts, run.node_crashes);
  EXPECT_GT(run.windows_degraded, 0u);
  // Crash/restart conserves chat work exactly: finished rooms are banked,
  // unfinished rooms re-run to completion.
  EXPECT_EQ(run.messages_delivered, ExpectedDeliveries(config));
  EXPECT_FALSE(run.stats.failed);
}

TEST(FederationTest, ChaosArmedDigestBitIdenticalAcrossShardCounts) {
  const ScaleConfig config = ChaosConfig();
  const ScaleRun one = RunShardedVolano(config, 1);
  ASSERT_TRUE(one.completed);
  const std::string golden = ScaleRunSignature(one);
  for (const int shards : {2, 4}) {
    const ScaleRun run = RunShardedVolano(config, shards);
    EXPECT_EQ(run.digest, one.digest) << "shards=" << shards;
    EXPECT_EQ(ScaleRunSignature(run), golden) << "shards=" << shards;
  }
}

TEST(FederationTest, ChaosArmedJsonBitIdenticalAcrossShardAndJobCounts) {
  const std::vector<int> shard_counts = {1, 2, 4};
  auto run_cells = [&](int jobs) {
    SupervisorOptions options;  // Defaults: no watchdog, no journal.
    SupervisedRun<ScaleCell> run = RunSupervised(
        options, shard_counts.size(),
        [&](size_t i) {
          ScaleCell cell;
          cell.config = ChaosConfig();
          cell.run = RunShardedVolano(cell.config, shard_counts[i]);
          return cell;
        },
        CellCodec<ScaleCell>{}, jobs);
    EXPECT_TRUE(run.AllOk());
    return RenderScaleJson(run.results, /*seed=*/7, /*include_timing=*/false);
  };
  const std::string jobs1 = run_cells(1);
  EXPECT_FALSE(jobs1.empty());
  EXPECT_NE(jobs1.find("\"failure_model\""), std::string::npos);
  EXPECT_EQ(run_cells(2), jobs1);
  EXPECT_EQ(run_cells(4), jobs1);
}

// Crashes need no fabric. With gossip off a node has no inbox to reset, and
// crash and restart still conserve chat work.
TEST(FederationTest, CrashesWithGossipOffConserveChatWork) {
  ScaleConfig config = ChaosConfig();
  config.gossip_period = 0;
  const ScaleRun run = RunShardedVolano(config, 2);
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.node_crashes, static_cast<uint64_t>(config.nodes()));
  EXPECT_EQ(run.node_restarts, run.node_crashes);
  EXPECT_EQ(run.messages_delivered, ExpectedDeliveries(config));
  EXPECT_EQ(run.fed.beacons_sent, 0u);
  EXPECT_EQ(run.fed.crash_inflight_dropped, 0u);
}

TEST(FederationTest, RetransmissionBeatsTheNoRetransmitControl) {
  // Heavy loss over a long, chatty run: many gossip rounds means many lost
  // beacons means many retransmit timers that actually get a chance to fire
  // before shutdown. No crashes — a transmitter's unacked buffer dies with
  // its incarnation, so crash-lost beacons are not what retransmission
  // repairs (loss is).
  ScaleConfig config = TinyConfig();
  config.chat.messages_per_user = 32;
  config.gossip_period = MsToCycles(5);
  config.faults.seed = 23;
  config.faults.loss_rate = 0.30;
  config.retransmit = true;
  const ScaleRun retx = RunShardedVolano(config, 2);
  EXPECT_TRUE(retx.completed);
  EXPECT_GT(retx.fed.retransmits, 0u);

  ScaleConfig control_config = config;
  control_config.retransmit = false;
  const ScaleRun control = RunShardedVolano(control_config, 2);
  EXPECT_TRUE(control.completed);
  EXPECT_EQ(control.fed.retransmits, 0u);

  // The teeth: 30% loss must cost the fire-and-forget control real
  // deliveries, and the recovery protocol must strictly beat it.
  EXPECT_GT(control.deliveries_lost, 0u);
  EXPECT_LT(retx.deliveries_lost, control.deliveries_lost);
}

TEST(FederationTest, LossyFabricCountsDropsByCause) {
  ScaleConfig config = TinyConfig();
  config.faults.seed = 5;
  config.faults.loss_rate = 0.25;
  config.faults.dup_rate = 0.25;
  const ScaleRun run = RunShardedVolano(config, 1);
  EXPECT_TRUE(run.completed);
  EXPECT_GT(run.fabric.dropped_loss, 0u);
  EXPECT_GT(run.fabric.duplicated, 0u);
  // Each duplicated delivery is discarded by the receiver's id check.
  EXPECT_GT(run.fed.dup_discards, 0u);
  // Conservation over unique messages: everything emitted is accounted to
  // exactly one outcome.
  EXPECT_EQ(run.fabric.emitted,
            run.fabric.routed + run.fabric.refused + run.fabric.dropped_closed +
                run.fabric.dropped_loss + run.fabric.dropped_partition +
                run.fabric.dropped_crashed + run.fabric.dropped_lane_overflow);
}

std::string RenderOneCell(const ScaleConfig& config, const ScaleRun& run) {
  std::vector<ScaleCell> cells(1);
  cells[0].config = config;
  cells[0].run = run;
  return RenderScaleJson(cells, 7, /*include_timing=*/false);
}

// Fault-free runs render the armed layout, every fault counter zero.
TEST(FederationTest, FaultFreeRunReportsZeroFaultCounters) {
  const ScaleConfig config = TinyConfig();
  const ScaleRun run = RunShardedVolano(config, 1);
  ASSERT_TRUE(run.completed);
  EXPECT_EQ(run.node_crashes + run.node_restarts + run.windows_degraded +
                run.deliveries_lost,
            0u);
  const FederationCounters& f = run.fed;
  EXPECT_EQ(f.retransmits + f.retx_abandoned + f.dup_discards + f.acks_sent +
                f.acks_received + f.chat_messages_lost + f.crash_inflight_dropped,
            0u);
  const FabricStats& fab = run.fabric;
  EXPECT_EQ(fab.dropped_loss + fab.dropped_partition + fab.dropped_crashed +
                fab.dropped_lane_overflow + fab.duplicated,
            0u);
  const std::string sig = ScaleRunSignature(run);
  EXPECT_NE(sig.find("|crashes:0|restarts:0|degraded:0|lost:0|retx:0+0|dupdrop:0|"
                     "acks:0/0|"),
            std::string::npos)
      << sig;
  EXPECT_EQ(sig.find("failure:"), std::string::npos);
  const std::string json = RenderOneCell(config, run);
  EXPECT_NE(json.find("\"failure_model\": {\n"
                      "        \"node_crashes\": 0,\n"
                      "        \"node_restarts\": 0,\n"
                      "        \"windows_degraded\": 0,\n"
                      "        \"deliveries_lost\": 0,\n"),
            std::string::npos)
      << json;
  // The recovery counters close the "fed" block, the drop causes "fabric".
  EXPECT_NE(json.find("        \"retransmits\": 0,\n"
                      "        \"retx_abandoned\": 0,\n"
                      "        \"dup_discards\": 0,\n"
                      "        \"acks_sent\": 0,\n"
                      "        \"acks_received\": 0,\n"
                      "        \"chat_messages_lost\": 0,\n"
                      "        \"crash_inflight_dropped\": 0\n"
                      "      },\n"
                      "      \"fabric\": {\n"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("        \"dropped_loss\": 0,\n"
                      "        \"dropped_partition\": 0,\n"
                      "        \"dropped_crashed\": 0,\n"
                      "        \"dropped_lane_overflow\": 0,\n"
                      "        \"duplicated\": 0\n"
                      "      },\n"
                      "      \"failure_model\""),
            std::string::npos)
      << json;
}

// A bounded fabric lane drops beacons with no fault plan armed. The
// signature's lost: and the JSON's dropped_lane_overflow must say so.
TEST(FederationTest, FaultFreeLaneOverflowIsReported) {
  ScaleConfig config = TinyConfig();
  config.gossip_period = UsToCycles(200);
  config.fabric_lane_capacity = 1;
  ASSERT_FALSE(config.faults.Enabled());
  const ScaleRun run = RunShardedVolano(config, 1);
  ASSERT_TRUE(run.completed);
  ASSERT_GE(run.fed.beacons_sent, run.fed.beacons_received);
  const uint64_t lost = run.fed.beacons_sent - run.fed.beacons_received;
  EXPECT_GT(lost, 0u);
  const std::string sig = ScaleRunSignature(run);
  EXPECT_NE(sig.find(StrFormat("|lost:%llu|", static_cast<unsigned long long>(lost))),
            std::string::npos)
      << sig;
  EXPECT_EQ(run.fabric.dropped_lane_overflow, lost);
  const std::string json = RenderOneCell(config, run);
  EXPECT_NE(json.find(StrFormat("\"dropped_lane_overflow\": %llu,",
                                static_cast<unsigned long long>(lost))),
            std::string::npos)
      << json;
  const FabricStats& fab = run.fabric;
  EXPECT_EQ(fab.emitted, fab.routed + fab.refused + fab.dropped_closed + fab.dropped_loss +
                             fab.dropped_partition + fab.dropped_crashed +
                             fab.dropped_lane_overflow);
}

TEST(FederationTest, ArmedSignatureNamesTheAvailabilityFields) {
  const ScaleRun run = RunShardedVolano(ChaosConfig(), 1);
  const std::string sig = ScaleRunSignature(run);
  for (const char* field : {"crashes:", "restarts:", "degraded:", "lost:",
                            "retx:", "dupdrop:", "acks:", "goodput:"}) {
    EXPECT_NE(sig.find(field), std::string::npos) << field;
  }
}

TEST(FederationTest, WindowWatchdogFailsAStuckFederationDeterministically) {
  // A per-window wall-clock budget no real window can meet: the run must
  // fold into a completed=false result with the watchdog named as the
  // failure — not hang, not crash. Large rooms + a long window give the
  // engine enough events per window for the watchdog's rate-limited clock
  // check (every 4096 polls) to actually look at the clock.
  ScaleConfig config;
  config.rooms = 2;
  config.rooms_per_node = 2;
  config.chat.users_per_room = 8;
  config.chat.messages_per_user = 16;
  config.window = MsToCycles(200);
  config.seed = 7;
  config.window_wall_budget_sec = 1e-9;
  const ScaleRun run = RunShardedVolano(config, 1);
  EXPECT_FALSE(run.completed);
  EXPECT_TRUE(run.stats.failed);
  EXPECT_NE(run.stats.failure.find("federation watchdog"), std::string::npos)
      << run.stats.failure;
  EXPECT_NE(ScaleRunSignature(run).find("|failure:"), std::string::npos);
  // Partial per-node stats were folded, not discarded.
  EXPECT_GT(run.stats.machine.tasks_created, 0u);
}

TEST(FederationTest, NegativeWindowBudgetDisablesTheWatchdog) {
  ScaleConfig config = TinyConfig();
  config.window_wall_budget_sec = -1.0;  // Force off, ignore the env.
  const ScaleRun run = RunShardedVolano(config, 1);
  EXPECT_TRUE(run.completed);
}

// Literal goldens for the armed paths (scale_test.cc pins the fault-free
// ones; see the note there on re-recording after a layout change). The
// deadline case folds crashed, restarted and down nodes through the failed
// path under the fault model.
TEST(FederationTest, PinnedSignatures) {
  EXPECT_EQ(ScaleRunSignature(RunShardedVolano(ChaosConfig(), 2)),
            "scale:4c53a510f94559f8|nodes:4|windows:19|sent:256|delivered:1024|"
            "beacons:19/17|drops:0+0|peak_tasks:72|"
            "elapsed:0x1.1eb851eb851ecp-3|completed:1|crashes:4|restarts:4|"
            "degraded:5|lost:2|retx:16+0|dupdrop:16|acks:16/12|"
            "goodput:0x1.50d79435e50d8p+12|events:20564,20338,210,0,41,8");

  ScaleConfig deadline = ChaosConfig();
  deadline.deadline = deadline.window * 4;
  EXPECT_EQ(ScaleRunSignature(RunShardedVolano(deadline, 1)),
            "scale:f83032529bc76382|nodes:4|windows:4|sent:0|delivered:0|"
            "beacons:3/1|drops:0+0|peak_tasks:66|"
            "elapsed:0x1.47ae147ae147bp-5|completed:0|crashes:4|restarts:0|"
            "degraded:3|lost:2|retx:0+0|dupdrop:0|acks:1/0|goodput:0x0p+0|"
            "events:5280,5257,11,0,16,4|"
            "failure:scale deadline exceeded: 4 node(s) still live at window 4");
}

TEST(FederationTest, DeadlineFoldsPartialStatsIntoTheSignature) {
  ScaleConfig config = TinyConfig();
  config.deadline = config.window * 2;  // Far too tight for the chat.
  const ScaleRun run = RunShardedVolano(config, 1);
  EXPECT_FALSE(run.completed);
  // The partial per-node aggregates survive — the pre-failure-model code
  // dropped inbox/late-write counters and reported empty chat totals here.
  EXPECT_GT(run.stats.machine.tasks_created, 0u);
  EXPECT_GT(run.messages_sent, 0u);
  const std::string sig = ScaleRunSignature(run);
  EXPECT_NE(sig.find("|failure:scale deadline exceeded"), std::string::npos)
      << sig;
}

}  // namespace
}  // namespace elsc
