// Window-granular checkpoint/restore (src/api/scale_ckpt.h): the
// kill-and-resume determinism contract.
//
// The load-bearing tests are the resume-equality ones: a federation stopped
// at an arbitrary window barrier (the in-process stand-in for SIGKILL) and
// resumed in a fresh run must produce the exact ScaleRunSignature of an
// uninterrupted run — at shard counts 1/2/4, under the chaos fault plan,
// and across multi-segment fallback when the newest segment is corrupt.
// scripts/ci_supervised.sh drives the same drill through a real process
// kill (ELSC_SCALE_INJECT_KILL) and byte-compares the bench JSON.

#include "src/api/scale_ckpt.h"

#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/api/scale.h"
#include "src/base/atomic_file.h"
#include "src/harness/shutdown.h"

namespace elsc {
namespace {

// Same shape as scale_test.cc's TinyConfig: 4 nodes, gossip on, enough
// windows that mid-run stop points exist.
ScaleConfig TinyConfig() {
  ScaleConfig config;
  config.rooms = 4;
  config.rooms_per_node = 1;
  config.chat.users_per_room = 4;
  config.chat.messages_per_user = 4;
  config.seed = 7;
  return config;
}

ScaleConfig ChaosConfig() {
  ScaleConfig config = TinyConfig();
  config.chat.messages_per_user = 6;  // Enough windows for crashes to land.
  config.faults = FederationChaosPlan(/*seed=*/21);
  // Guarantee crashes on this tiny scenario (the preset's 0.5 rate can miss
  // all 4 nodes at some seeds): every node crashes early and restarts.
  config.faults.node_crash_rate = 1.0;
  config.faults.crash_window_min = 2;
  config.faults.crash_window_span = 4;
  config.faults.down_windows_min = 1;
  config.faults.down_windows_span = 3;
  return config;
}

// federation_test.cc's ChaosConfig: deeper chat, so the crashes, restarts
// and down windows spread over many more barriers.
ScaleConfig LongChaosConfig() {
  ScaleConfig config = TinyConfig();
  config.chat.messages_per_user = 16;
  config.faults = FederationChaosPlan(/*seed=*/11);
  config.faults.node_crash_rate = 1.0;
  config.faults.crash_window_min = 2;
  config.faults.crash_window_span = 4;
  config.faults.down_windows_min = 1;
  config.faults.down_windows_span = 3;
  return config;
}

// A fresh per-test segment prefix: fingerprint-named segments from a
// previous (crashed) test run must not leak into this one.
std::string FreshPrefix(const ScaleConfig& config, const std::string& name) {
  const std::string prefix = ::testing::TempDir() + "/elsc_ckpt_" + name;
  RemoveCheckpointSegments(prefix, ScaleConfigFingerprint(config));
  return prefix;
}

TEST(ScaleCkptTest, FingerprintCoversScenarioNotExecution) {
  const ScaleConfig base = TinyConfig();
  const uint64_t fp = ScaleConfigFingerprint(base);

  // Execution knobs do not move the fingerprint: the same scenario resumed
  // with a different shard count / wall budget / cadence must still match
  // its segments.
  ScaleConfig exec = base;
  exec.window_wall_budget_sec = 9.0;
  exec.ckpt.path = "/tmp/elsewhere";
  exec.ckpt.every = 1;
  exec.ckpt.stop_after_window = 3;
  EXPECT_EQ(ScaleConfigFingerprint(exec), fp);

  // Every behavior-shaping axis does.
  ScaleConfig seed = base;
  seed.seed = 8;
  EXPECT_NE(ScaleConfigFingerprint(seed), fp);
  ScaleConfig shape = base;
  shape.rooms = 5;
  EXPECT_NE(ScaleConfigFingerprint(shape), fp);
  ScaleConfig chat = base;
  chat.chat.messages_per_user = 5;
  EXPECT_NE(ScaleConfigFingerprint(chat), fp);
  ScaleConfig faults = base;
  faults.faults = FederationChaosPlan(21);
  EXPECT_NE(ScaleConfigFingerprint(faults), fp);
}

TEST(ScaleCkptTest, StopAfterWindowWritesAForcedSegment) {
  ScaleConfig config = TinyConfig();
  config.ckpt.path = FreshPrefix(config, "forced");
  config.ckpt.every = 0;  // Forced-only: no cadence segments.
  config.ckpt.stop_after_window = 2;
  const ScaleRun partial = RunShardedVolano(config, 1);
  EXPECT_FALSE(partial.completed);

  const uint64_t fp = ScaleConfigFingerprint(config);
  const auto segments = ListCheckpointSegments(config.ckpt.path, fp);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].window, 2u);
  RemoveCheckpointSegments(config.ckpt.path, fp);
}

// The tentpole contract: stop at a window, resume in a fresh run, compare
// the full signature against an uninterrupted control — at several stop
// points and every shard count the golden-digest suite pins.
TEST(ScaleCkptTest, ResumeMatchesUninterruptedRunAtEveryShardCount) {
  const ScaleConfig control_config = TinyConfig();
  const ScaleRun control = RunShardedVolano(control_config, 1);
  ASSERT_TRUE(control.completed);
  ASSERT_GT(control.windows, 3u);
  const std::string control_sig = ScaleRunSignature(control);

  for (const uint64_t stop : {uint64_t{1}, uint64_t{2}, control.windows - 1}) {
    for (const int shards : {1, 2, 4}) {
      ScaleConfig config = TinyConfig();
      config.ckpt.path = FreshPrefix(
          config, "resume_w" + std::to_string(stop) + "_s" + std::to_string(shards));
      config.ckpt.every = 1;
      config.ckpt.stop_after_window = stop;
      const ScaleRun partial = RunShardedVolano(config, shards);
      EXPECT_FALSE(partial.completed);

      config.ckpt.stop_after_window = 0;
      const ScaleRun resumed = RunShardedVolano(config, shards);
      EXPECT_TRUE(resumed.completed);
      EXPECT_EQ(ScaleRunSignature(resumed), control_sig)
          << "stop=" << stop << " shards=" << shards;

      // Clean completion deletes the segments: a finished scenario can never
      // resurrect from stale state.
      EXPECT_TRUE(ListCheckpointSegments(config.ckpt.path,
                                         ScaleConfigFingerprint(config))
                      .empty());
    }
  }
}

// Every barrier is a stop point: crash, restart, router close, inbox EOF
// and each node's final fold all happen at some window, so each of them is
// crossed by a checkpoint here. Each resume also builds its federation from
// scratch after the stopped run threw its own away.
TEST(ScaleCkptTest, ResumeAtEveryWindowMatchesUninterruptedRun) {
  const struct {
    const char* name;
    ScaleConfig config;
  } cases[] = {{"tiny", TinyConfig()},
               {"chaos", ChaosConfig()},
               {"long_chaos", LongChaosConfig()}};
  for (const auto& c : cases) {
    const ScaleRun control = RunShardedVolano(c.config, 1);
    ASSERT_TRUE(control.completed) << c.name;
    const std::string control_sig = ScaleRunSignature(control);
    for (const int shards : {1, 4}) {
      for (uint64_t stop = 1; stop < control.windows; ++stop) {
        ScaleConfig config = c.config;
        config.ckpt.path = FreshPrefix(
            config, std::string("sweep_") + c.name + "_s" + std::to_string(shards));
        config.ckpt.every = 0;  // Forced-only: resume from exactly `stop`.
        config.ckpt.stop_after_window = stop;
        EXPECT_FALSE(RunShardedVolano(config, shards).completed);
        config.ckpt.stop_after_window = 0;
        EXPECT_EQ(ScaleRunSignature(RunShardedVolano(config, shards)), control_sig)
            << c.name << " shards=" << shards << " stop=" << stop;
      }
    }
  }
}

TEST(ScaleCkptTest, ChaosScenarioResumesBitIdentical) {
  const ScaleConfig control_config = ChaosConfig();
  const ScaleRun control = RunShardedVolano(control_config, 2);
  ASSERT_GT(control.windows, 4u);
  ASSERT_GT(control.node_crashes, 0u);  // The plan actually bit.
  const std::string control_sig = ScaleRunSignature(control);

  // Crashed/restarted/down nodes cross checkpoint boundaries here: the
  // carried-stats, boot-snapshot, and down-node paths all execute.
  for (const uint64_t stop : {uint64_t{2}, control.windows / 2}) {
    ScaleConfig config = ChaosConfig();
    config.ckpt.path = FreshPrefix(config, "chaos_w" + std::to_string(stop));
    config.ckpt.every = 1;
    config.ckpt.stop_after_window = stop;
    const ScaleRun partial = RunShardedVolano(config, 2);
    EXPECT_FALSE(partial.completed);

    config.ckpt.stop_after_window = 0;
    const ScaleRun resumed = RunShardedVolano(config, 2);
    EXPECT_EQ(ScaleRunSignature(resumed), control_sig) << "stop=" << stop;
  }
}

TEST(ScaleCkptTest, ResumedRunCanBeStoppedAndResumedAgain) {
  const ScaleRun control = RunShardedVolano(TinyConfig(), 1);
  ASSERT_GT(control.windows, 4u);

  // Two interruptions back to back: segment -> resume -> segment -> resume.
  ScaleConfig config = TinyConfig();
  config.ckpt.path = FreshPrefix(config, "twice");
  config.ckpt.every = 1;
  config.ckpt.stop_after_window = 1;
  EXPECT_FALSE(RunShardedVolano(config, 2).completed);
  config.ckpt.stop_after_window = 3;
  EXPECT_FALSE(RunShardedVolano(config, 2).completed);
  config.ckpt.stop_after_window = 0;
  const ScaleRun resumed = RunShardedVolano(config, 2);
  EXPECT_TRUE(resumed.completed);
  EXPECT_EQ(ScaleRunSignature(resumed), ScaleRunSignature(control));
}

TEST(ScaleCkptTest, CorruptNewestSegmentFallsBackToOlderOne) {
  const ScaleRun control = RunShardedVolano(TinyConfig(), 1);
  const std::string control_sig = ScaleRunSignature(control);

  ScaleConfig config = TinyConfig();
  config.ckpt.path = FreshPrefix(config, "fallback");
  config.ckpt.every = 1;
  config.ckpt.keep = 4;
  config.ckpt.stop_after_window = 3;
  EXPECT_FALSE(RunShardedVolano(config, 1).completed);

  const uint64_t fp = ScaleConfigFingerprint(config);
  auto segments = ListCheckpointSegments(config.ckpt.path, fp);
  ASSERT_GE(segments.size(), 2u);

  // Flip one byte in the middle of the newest segment: the checksum must
  // reject it and restore must fall back to the next-older segment.
  std::string contents;
  ASSERT_TRUE(ReadFileToString(segments[0].path, &contents));
  contents[contents.size() / 2] ^= 0x40;
  ASSERT_TRUE(AtomicWriteFile(segments[0].path, contents, nullptr));

  config.ckpt.stop_after_window = 0;
  const ScaleRun resumed = RunShardedVolano(config, 1);
  EXPECT_TRUE(resumed.completed);
  EXPECT_EQ(ScaleRunSignature(resumed), control_sig);
}

TEST(ScaleCkptTest, AllSegmentsCorruptFallsBackToColdStart) {
  const ScaleRun control = RunShardedVolano(TinyConfig(), 1);

  ScaleConfig config = TinyConfig();
  config.ckpt.path = FreshPrefix(config, "coldstart");
  config.ckpt.every = 1;
  config.ckpt.stop_after_window = 2;
  EXPECT_FALSE(RunShardedVolano(config, 1).completed);

  const uint64_t fp = ScaleConfigFingerprint(config);
  for (const auto& segment : ListCheckpointSegments(config.ckpt.path, fp)) {
    ASSERT_TRUE(AtomicWriteFile(segment.path, "elscscale v4 torn", nullptr));
  }

  config.ckpt.stop_after_window = 0;
  const ScaleRun resumed = RunShardedVolano(config, 1);
  EXPECT_TRUE(resumed.completed);
  EXPECT_EQ(ScaleRunSignature(resumed), ScaleRunSignature(control));
}

TEST(ScaleCkptTest, SegmentFromDifferentSeedIsNeverReplayed) {
  ScaleConfig config = TinyConfig();
  config.ckpt.path = FreshPrefix(config, "binding");
  config.ckpt.every = 1;
  config.ckpt.stop_after_window = 2;
  EXPECT_FALSE(RunShardedVolano(config, 1).completed);

  // A different seed is a different scenario: its fingerprint differs, so
  // the old segments are simply invisible to it and it cold-starts.
  ScaleConfig other = config;
  other.seed = 8;
  other.ckpt.stop_after_window = 0;
  const uint64_t other_fp = ScaleConfigFingerprint(other);
  EXPECT_TRUE(ListCheckpointSegments(other.ckpt.path, other_fp).empty());
  const ScaleRun fresh = RunShardedVolano(other, 1);
  EXPECT_TRUE(fresh.completed);

  ScaleConfig plain = TinyConfig();
  plain.seed = 8;
  EXPECT_EQ(ScaleRunSignature(fresh),
            ScaleRunSignature(RunShardedVolano(plain, 1)));
  RemoveCheckpointSegments(config.ckpt.path, ScaleConfigFingerprint(config));
}

TEST(ScaleCkptTest, SegmentsArePrunedToKeep) {
  ScaleConfig config = TinyConfig();
  config.ckpt.path = FreshPrefix(config, "prune");
  config.ckpt.every = 1;
  config.ckpt.keep = 2;
  config.ckpt.stop_after_window = 4;
  EXPECT_FALSE(RunShardedVolano(config, 1).completed);

  const uint64_t fp = ScaleConfigFingerprint(config);
  const auto segments = ListCheckpointSegments(config.ckpt.path, fp);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].window, 4u);
  EXPECT_EQ(segments[1].window, 3u);
  RemoveCheckpointSegments(config.ckpt.path, fp);
}

TEST(ScaleCkptTest, GracefulShutdownUnwindsAfterWritingASegment) {
  ScaleConfig config = TinyConfig();
  config.ckpt.path = FreshPrefix(config, "sigterm");
  config.ckpt.every = 0;  // Forced-only: the shutdown segment is the proof.

  RequestShutdownForTest(true);
  EXPECT_THROW(RunShardedVolano(config, 2), GracefulShutdownRequested);
  RequestShutdownForTest(false);

  // The run unwound at the first barrier — after flushing a segment — and a
  // rerun resumes from it to the uninterrupted answer.
  const uint64_t fp = ScaleConfigFingerprint(config);
  EXPECT_FALSE(ListCheckpointSegments(config.ckpt.path, fp).empty());
  const ScaleRun resumed = RunShardedVolano(config, 2);
  EXPECT_TRUE(resumed.completed);
  EXPECT_EQ(ScaleRunSignature(resumed),
            ScaleRunSignature(RunShardedVolano(TinyConfig(), 1)));
}

TEST(ScaleCkptTest, ShutdownWithoutCheckpointingStillUnwindsCleanly) {
  RequestShutdownForTest(true);
  EXPECT_THROW(RunShardedVolano(TinyConfig(), 1), GracefulShutdownRequested);
  RequestShutdownForTest(false);
  // And the flag cleared: the same config completes normally afterwards.
  EXPECT_TRUE(RunShardedVolano(TinyConfig(), 1).completed);
}

// Distinct nonzero counters, named one by one: with equal (or zero) values a
// decoder that swapped two reads would still re-encode identically.
FederationCounters DistinctCounters(uint64_t base) {
  FederationCounters c;
  c.beacons_sent = base + 1;
  c.beacons_received = base + 2;
  c.inbox_overflows = base + 3;
  c.late_writes = base + 4;
  c.retransmits = base + 5;
  c.retx_abandoned = base + 6;
  c.dup_discards = base + 7;
  c.acks_sent = base + 8;
  c.acks_received = base + 9;
  c.chat_messages_lost = base + 10;
  c.crash_inflight_dropped = base + 11;
  return c;
}

// A RunStats whose encoding differs per `base`, with a failure string that
// needs escaping (spaces and a backslash).
RunStats SampleStats(uint64_t base) {
  RunStats s;
  s.sched.schedule_calls = base + 1;
  s.machine.context_switches = base + 2;
  s.events.fired = base + 3;
  s.memory.task_arena_bytes = base + 4;
  s.elapsed_sec = 0.25;
  s.failed = true;
  s.failure = "stuck at window \\ " + std::to_string(base);
  return s;
}

// No field of any record is zero, and any two fields of one record type
// differ in at least one of its lines, so a decoder that swapped or dropped
// two reads would move a pinned line.
TEST(ScaleCkptTest, EncodeDecodeRoundTripsExactly) {
  ScaleCheckpoint ck;
  ck.config_fp = 0xabcdef0123456789ULL;
  ck.seed = 7;
  ck.loop.window_index = 42;
  ck.num_nodes = 3;
  ck.loop.chats_done = 2;
  ck.loop.all_completed = true;
  ck.loop.router_close_window = 38;
  ck.loop.inbox_close_window = 40;
  ck.run.digest = 0xfeedfacecafebeefULL;
  ck.run.messages_sent = 12345;
  ck.run.messages_delivered = 123456789;
  ck.run.node_crashes = 6;
  ck.run.node_restarts = 4;
  ck.run.windows_degraded = 9;
  ck.run.fed = DistinctCounters(100);
  ck.run.peak_live_tasks = 336;
  ck.run.peak_live_nodes = 8;
  ck.run.peak_task_arena_bytes = 129024;
  ck.run.peak_live_sockets = 52;
  const RunStats agg = SampleStats(500);
  ck.run.stats = agg;
  ck.fabric.closed = true;
  FabricStats& fs = ck.fabric.stats;
  fs.emitted = 17;
  fs.routed = 18;
  fs.refused = 19;
  fs.dropped_closed = 20;
  fs.exchanges = 21;
  fs.max_window_backlog = 22;
  fs.dropped_loss = 23;
  fs.dropped_partition = 24;
  fs.dropped_crashed = 25;
  fs.dropped_lane_overflow = 26;
  fs.duplicated = 27;
  ck.fabric.next_seq = {31, 15, 92};
  CkptNode down;
  down.life.index = 1;
  down.life.down = true;
  down.life.incarnation = 3;
  down.life.clock_offset = 120000;
  down.life.crashes = 4;
  down.life.restart_window = 44;
  down.life.chat_done = true;
  down.life.banked_sent = 24;
  down.life.banked_delivered = 96;
  down.fed = DistinctCounters(300);
  down.life.room_ids = {21, 22, 23, 25, 26};
  const RunStats down_carried = SampleStats(700);
  down.life.carried_stats = down_carried;
  CkptNode live;
  live.life.index = 2;
  live.life.incarnation = 6;
  live.life.clock_offset = 360000;
  live.life.crashes = 7;
  live.life.restart_window = 36;
  live.life.chat_done = true;
  live.life.banked_sent = 48;
  live.life.banked_delivered = 192;
  live.fed = DistinctCounters(200);
  live.life.room_ids = {12, 13, 14};
  const RunStats live_carried = SampleStats(600);
  live.life.carried_stats = live_carried;
  CkptArrival arrival;
  arrival.window = 41;
  arrival.arrival = 99;
  arrival.payload.id = 5;
  arrival.payload.sender = 1;
  arrival.payload.room = 13;
  arrival.payload.sent_at = 80;
  arrival.payload.payload = 1234;
  live.arrivals = {arrival};
  live.verify = "fed:1,2|ack:0";
  ck.nodes = {down, live};

  const std::string encoded = EncodeScaleCheckpoint(ck);
  ScaleCheckpoint decoded;
  std::string error;
  ASSERT_TRUE(DecodeScaleCheckpoint(encoded, &decoded, &error)) << error;
  // Exact round-trip: re-encoding the decoded checkpoint is byte-identical.
  EXPECT_EQ(EncodeScaleCheckpoint(decoded), encoded);
  // Every fixed-layout record, pinned: distinct values in codec order.
  for (const char* line : {
           "\nrun feedfacecafebeef 12345 123456789 6 4 9 101 102 103 104 105 106 107 108 "
           "109 110 111 336 8 129024 52 2 1 38 40 \n",
           "\nfabric 1 17 18 19 20 21 22 23 24 25 26 27 3 31 15 92 \n",
           "\nnode 1 2 3 120000 4 44 1 24 96 301 302 303 304 305 306 307 308 309 310 311 5 "
           "21 22 23 25 26 \n",
           "\nnode 2 1 6 360000 7 36 1 48 192 201 202 203 204 205 206 207 208 209 210 211 3 "
           "12 13 14 \n",
           "\narr 2 41 99 5 1 13 80 1234 \n"}) {
    EXPECT_NE(encoded.find(line), std::string::npos) << line << "\nnot in\n" << encoded;
  }
  ASSERT_EQ(decoded.nodes.size(), 2u);
  EXPECT_TRUE(decoded.run.fed == ck.run.fed);
  EXPECT_TRUE(decoded.nodes[0].fed == down.fed);
  EXPECT_TRUE(decoded.nodes[1].fed == live.fed);
  EXPECT_EQ(decoded.nodes[1].arrivals.size(), 1u);
  EXPECT_EQ(decoded.nodes[1].verify, live.verify);
  EXPECT_EQ(EncodeRunStats(decoded.run.stats), EncodeRunStats(agg));
  ASSERT_TRUE(decoded.nodes[0].life.carried_stats.has_value());
  EXPECT_EQ(EncodeRunStats(*decoded.nodes[0].life.carried_stats), EncodeRunStats(down_carried));
  ASSERT_TRUE(decoded.nodes[1].life.carried_stats.has_value());
  EXPECT_EQ(EncodeRunStats(*decoded.nodes[1].life.carried_stats), EncodeRunStats(live_carried));
}

TEST(ScaleCkptTest, UnarmedRunsWriteNothing) {
  // ELSC_SCALE_CKPT unset and config.ckpt empty: the checkpoint layer is
  // fully disabled and the digest is the pre-checkpoint golden one.
  ScaleConfig config = TinyConfig();
  ASSERT_FALSE(config.ckpt.armed());
  const ScaleRun a = RunShardedVolano(config, 1);
  const ScaleRun b = RunShardedVolano(config, 4);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_TRUE(a.completed);
}

}  // namespace
}  // namespace elsc
