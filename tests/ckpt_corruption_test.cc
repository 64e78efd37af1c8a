// Corruption battery for the durable formats (ISSUE: "never UB"): arbitrary
// truncations, bit flips, version skews, and trailing garbage fed through
// every decoder that reads files a crash may have torn. Each case must come
// back as a clean `false` (checkpoints) or a healed prefix (the journal) —
// never a crash, hang, or sanitizer report. scripts/ci_sanitize.sh runs this
// suite under ASan/UBSan, which is what turns "decoded garbage" into a
// hard failure instead of silent luck.

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/api/scale.h"
#include "src/api/scale_ckpt.h"
#include "src/api/simulation.h"
#include "src/base/atomic_file.h"
#include "src/harness/journal.h"

namespace elsc {
namespace {

// A representative checkpoint: live + down nodes, arrivals, carried stats,
// escaped payloads — every record type the decoder knows appears at least
// once.
ScaleCheckpoint SampleCheckpoint() {
  ScaleCheckpoint ck;
  ck.config_fp = 0x1122334455667788ULL;
  ck.seed = 7;
  ck.loop.window_index = 9;
  ck.num_nodes = 3;
  ck.loop.chats_done = 1;
  ck.run.digest = 0xfeedfacecafebeefULL;
  ck.run.messages_sent = 100;
  ck.run.messages_delivered = 90;
  ck.run.stats.sched.schedule_calls = 55;
  ck.run.stats.elapsed_sec = 0.5;
  ck.run.stats.failure = "stats with spaces\nand newline";
  ck.fabric.stats.emitted = 12;
  ck.fabric.next_seq = {1, 2, 3};
  CkptNode live;
  live.life.index = 0;
  live.life.room_ids = {0};
  RunStats carried;
  carried.machine.context_switches = 8;
  carried.failure = "carried\\escape";
  live.life.carried_stats = carried;
  CkptArrival arrival;
  arrival.window = 8;
  arrival.arrival = 123;
  arrival.payload.id = 4;
  arrival.payload.sender = 2;
  arrival.payload.room = 0;
  arrival.payload.sent_at = 100;
  arrival.payload.payload = 77;
  live.arrivals = {arrival, arrival};
  live.verify = "fed:1|ack:0";
  CkptNode down;
  down.life.index = 2;
  down.life.down = true;
  down.life.restart_window = 11;
  down.life.room_ids = {2};
  ck.nodes = {live, down};
  return ck;
}

TEST(CkptCorruptionTest, EveryTruncationIsRejectedCleanly) {
  const std::string full = EncodeScaleCheckpoint(SampleCheckpoint());
  ScaleCheckpoint ck;
  std::string error;
  ASSERT_TRUE(DecodeScaleCheckpoint(full, &ck, &error)) << error;

  // A kill can tear the file at any byte: every proper prefix must decode to
  // a descriptive failure, never garbage state or UB.
  for (size_t len = 0; len < full.size(); ++len) {
    error.clear();
    ScaleCheckpoint torn;
    EXPECT_FALSE(DecodeScaleCheckpoint(full.substr(0, len), &torn, &error))
        << "prefix of " << len << " bytes decoded successfully";
    EXPECT_FALSE(error.empty()) << "no diagnosis for a " << len << "-byte tear";
  }
}

TEST(CkptCorruptionTest, EveryBitFlipIsRejectedCleanly) {
  const std::string full = EncodeScaleCheckpoint(SampleCheckpoint());
  // Flip each bit of each byte. The FNV trailer covers every preceding
  // byte, so a content flip must be rejected. The only flips allowed to
  // survive are semantically invisible ones (e.g. a case flip inside the
  // trailer's own hex digits, which parse to the same value) — if a flip
  // decodes, it must decode to the *original* checkpoint, byte for byte.
  for (size_t i = 0; i < full.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = full;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      ScaleCheckpoint ck;
      std::string error;
      if (DecodeScaleCheckpoint(flipped, &ck, &error)) {
        EXPECT_EQ(EncodeScaleCheckpoint(ck), full)
            << "byte " << i << " bit " << bit << " changed the decoded state";
      }
    }
  }
}

TEST(CkptCorruptionTest, VersionAndMagicSkewAreRejected) {
  // v1 is the pre-FederationCounters layout: its run record orders the
  // counters differently. v2's run digest chains the previous fold-record
  // layout. v3's run record carries two more loop tokens. A current segment
  // relabelled any of those ways, or as the next version, must be rejected
  // at the header, not misread or continued.
  const ScaleCheckpoint sample = SampleCheckpoint();
  const std::string current = EncodeScaleCheckpoint(sample);
  ASSERT_EQ(current.rfind("elscscale v4 ", 0), 0u);
  std::string v1 = current;
  v1.replace(v1.find("v4"), 2, "v1");
  std::string v2 = current;
  v2.replace(v2.find("v4"), 2, "v2");
  std::string v3 = current;
  v3.replace(v3.find("v4"), 2, "v3");
  std::string v5 = current;
  v5.replace(v5.find("v4"), 2, "v5");
  std::string wrong_magic = current;
  wrong_magic.replace(0, 9, "elscwrong");
  for (const std::string& bad : {v1, v2, v3, v5, wrong_magic}) {
    ScaleCheckpoint ck;
    std::string error;
    EXPECT_FALSE(DecodeScaleCheckpoint(bad, &ck, &error));
    EXPECT_NE(error.find("header"), std::string::npos) << error;
  }
}

TEST(CkptCorruptionTest, StructuralDamageIsRejected) {
  const std::string full = EncodeScaleCheckpoint(SampleCheckpoint());
  const size_t end_at = full.rfind("end ");
  ASSERT_NE(end_at, std::string::npos);

  ScaleCheckpoint ck;
  std::string error;
  // Missing end record (the torn-final-write shape fsync prevents).
  EXPECT_FALSE(DecodeScaleCheckpoint(full.substr(0, end_at), &ck, &error));
  // Data after the end record (two segments concatenated).
  EXPECT_FALSE(DecodeScaleCheckpoint(full + full, &ck, &error));
  // A duplicated interior record.
  const size_t run_at = full.find("run ");
  const size_t run_end = full.find('\n', run_at);
  const std::string run_line = full.substr(run_at, run_end - run_at + 1);
  EXPECT_FALSE(DecodeScaleCheckpoint(
      full.substr(0, run_end + 1) + run_line + full.substr(run_end + 1), &ck,
      &error));
  // An unknown record type.
  EXPECT_FALSE(DecodeScaleCheckpoint(
      full.substr(0, run_at) + "mystery 1 2 3\n" + full.substr(run_at), &ck,
      &error));
  // Empty input.
  EXPECT_FALSE(DecodeScaleCheckpoint("", &ck, &error));
}

TEST(CkptCorruptionTest, RestoreSurvivesRandomGarbageSegments) {
  // End to end: a segment file full of noise must be rejected at restore and
  // the run must cold-start to the correct digest.
  ScaleConfig config;
  config.rooms = 2;
  config.rooms_per_node = 1;
  config.chat.users_per_room = 2;
  config.chat.messages_per_user = 2;
  config.seed = 3;
  const ScaleRun control = RunShardedVolano(config, 1);
  ASSERT_TRUE(control.completed);

  config.ckpt.path = ::testing::TempDir() + "/elsc_ckpt_garbage";
  const uint64_t fp = ScaleConfigFingerprint(config);
  RemoveCheckpointSegments(config.ckpt.path, fp);
  // Deterministic xorshift noise — no RNG dependency in the test.
  std::string noise(512, '\0');
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (char& c : noise) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<char>(x);
  }
  ASSERT_TRUE(AtomicWriteFile(CheckpointSegmentPath(config.ckpt.path, fp, 2),
                              noise, nullptr));
  const ScaleRun resumed = RunShardedVolano(config, 1);
  EXPECT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.digest, control.digest);
}

// Every RunStats counter set to a distinct value, named one by one: with
// equal (or zero) values a codec that wrote two counters in swapped order
// would still round-trip, but it moves the pinned bytes below.
RunStats DistinctRunStats() {
  RunStats s;
  s.sched.schedule_calls = 101;
  s.sched.idle_schedules = 102;
  s.sched.cycles_in_schedule = 103;
  s.sched.lock_wait_cycles = 104;
  s.sched.tasks_examined = 105;
  s.sched.recalc_entries = 106;
  s.sched.recalc_tasks_touched = 107;
  s.sched.picks_new_processor = 108;
  s.sched.picks_prev = 109;
  s.sched.picks_no_affinity = 110;
  s.sched.yield_reruns = 111;
  s.sched.wakeups = 112;
  s.sched.preemption_ipis = 113;
  s.sched.percpu_lock_acquisitions = 114;
  s.sched.percpu_lock_contended = 115;
  s.sched.percpu_lock_hold_cycles = 116;
  s.sched.percpu_lock_wait_cycles = 117;
  s.sched.double_locks = 118;
  s.sched.load_balance_calls = 119;
  s.sched.pull_migrations = 120;
  s.sched.array_swaps = 121;
  s.machine.ticks = 201;
  s.machine.context_switches = 202;
  s.machine.migrations = 203;
  s.machine.wakeups = 204;
  s.machine.tasks_created = 205;
  s.machine.tasks_exited = 206;
  s.machine.peak_live_tasks = 207;
  s.machine.quantum_expiries = 208;
  s.machine.preempt_requests = 209;
  s.machine.ticks_dropped = 210;
  s.machine.cpu_stalls = 211;
  s.machine.lock_stall_cycles = 212;
  s.events.scheduled = 301;
  s.events.fired = 302;
  s.events.cancelled = 303;
  s.events.callback_heap_allocs = 304;
  s.events.slot_allocs = 305;
  s.events.max_heap_depth = 306;
  s.faults.tick_drops = 401;
  s.faults.tick_jitters = 402;
  s.faults.storm_bursts = 403;
  s.faults.storm_tasks = 404;
  s.faults.spurious_wakes = 405;
  s.faults.yield_tasks = 406;
  s.faults.cpu_stalls = 407;
  s.faults.lock_stalls = 408;
  s.faults.conn_resets = 409;
  s.faults.conn_half_opens = 410;
  s.faults.slow_peer_windows = 411;
  s.faults.reconnect_storms = 412;
  s.audit.audits = 501;
  s.audit.picks_audited = 502;
  s.audit.conservation_violations = 503;
  s.audit.counter_violations = 504;
  s.audit.structure_violations = 505;
  s.audit.table_violations = 506;
  s.audit.ordering_violations = 507;
  s.audit.starvation_reports = 508;
  s.audit.livelock_reports = 509;
  s.memory.task_arena_bytes = 601;
  s.memory.task_arena_chunks = 602;
  s.memory.peak_live_sockets = 603;
  s.elapsed_sec = 1.5;
  s.failed = true;
  s.failure = "watchdog: cell stuck at window 7";
  return s;
}

TEST(CkptCorruptionTest, RunStatsCodecAndDigestBytesArePinned) {
  const RunStats stats = DistinctRunStats();
  const std::string encoded = EncodeRunStats(stats);
  EXPECT_EQ(encoded,
            "101 102 103 104 105 106 107 108 109 110 111 112 113 114 115 116 "
            "117 118 119 120 121 "                                   // sched
            "201 202 203 204 205 206 208 209 210 211 212 207 "       // machine
            "301 302 303 304 305 306 "                               // events
            "401 402 403 404 405 406 407 408 409 410 411 412 "       // faults
            "501 502 503 504 505 506 507 508 509 "                   // audit
            "601 602 603 "                                           // memory
            "0x1.8p+0 1 watchdog: cell stuck at window 7");
  // Every simulated counter is in RunStatsDigest and every engine counter
  // in EngineDigest; neither carries a memory counter.
  EXPECT_EQ(RunStatsDigest(stats),
            "sched:101,102,103,104,105,106,107,108,109,110,111,112,113,114,115,116,"
            "117,118,119,120,121|"
            "machine:201,202,203,204,205,206,208,209,210,211,212,207|"
            "faults:401,402,403,404,405,406,407,408,409,410,411,412|"
            "audit:501,502,503,504,505,506,507,508,509|"
            "failed:1|elapsed:0x1.8p+0");
  EXPECT_EQ(EngineDigest(stats), "events:301,302,303,304,305,306");
  RunStats round;
  ASSERT_TRUE(DecodeRunStats(encoded, &round));
  EXPECT_EQ(EncodeRunStats(round), encoded);
  EXPECT_EQ(round.failure, stats.failure);
}

TEST(CkptCorruptionTest, RunStatsMergeBytesArePinned) {
  // Folding the same record twice into the identity doubles every summed
  // counter and leaves the max-folded ones (max_heap_depth, elapsed_sec)
  // alone.
  RunStats merged;
  MergeRunStats(&merged, DistinctRunStats());
  MergeRunStats(&merged, DistinctRunStats());
  EXPECT_EQ(EncodeRunStats(merged),
            "202 204 206 208 210 212 214 216 218 220 222 224 226 228 230 232 "
            "234 236 238 240 242 "                                   // sched
            "402 404 406 408 410 412 416 418 420 422 424 414 "       // machine
            "602 604 606 608 610 306 "                               // events
            "802 804 806 808 810 812 814 816 818 820 822 824 "       // faults
            "1002 1004 1006 1008 1010 1012 1014 1016 1018 "          // audit
            "1202 1204 1206 "                                        // memory
            "0x1.8p+0 1 watchdog: cell stuck at window 7");
}

// A token must end at a space or at the end of input. A payload whose
// `failed` bit is glued to the diagnosis ("1Zwatchdog: ...") is torn, not a
// diagnosis that starts with 'Z'.
TEST(CkptCorruptionTest, GluedTokensAreRejected) {
  const RunStats stats = DistinctRunStats();
  const std::string encoded = EncodeRunStats(stats);
  const std::string trailer = " 1 " + stats.failure;
  ASSERT_EQ(encoded.compare(encoded.size() - trailer.size(), trailer.size(), trailer), 0);
  std::string glued = encoded;
  glued[encoded.size() - stats.failure.size() - 1] = 'Z';
  RunStats decoded;
  EXPECT_FALSE(DecodeRunStats(glued, &decoded)) << decoded.failure;

  VolanoRun run;
  run.result.completed = true;
  run.result.elapsed_sec = 2.5;
  run.result.messages_sent = 40;
  run.stats = stats;
  const std::string volano = EncodeVolanoRun(run);
  VolanoRun round;
  ASSERT_TRUE(DecodeVolanoRun(volano, &round));
  std::string glued_volano = volano;
  glued_volano[volano.size() - stats.failure.size() - 1] = 'Z';
  EXPECT_FALSE(DecodeVolanoRun(glued_volano, &round)) << round.stats.failure;
  // A separator replaced by '+', which the next number would parse as its
  // sign.
  std::string signed_volano = volano;
  signed_volano[volano.find(' ')] = '+';
  EXPECT_FALSE(DecodeVolanoRun(signed_volano, &round));
}

TEST(CkptCorruptionTest, RunStatsDecoderRejectsTruncations) {
  RunStats stats;
  stats.sched.schedule_calls = 41;
  stats.machine.context_switches = 97;
  stats.elapsed_sec = 1.5;
  stats.failed = true;
  stats.failure = "watchdog: something with spaces";
  const std::string full = EncodeRunStats(stats);
  RunStats round;
  ASSERT_TRUE(DecodeRunStats(full, &round));
  EXPECT_EQ(EncodeRunStats(round), full);

  // The failure string is the free-form tail, so truncations inside it still
  // parse (they just shorten the diagnosis). Any tear inside the numeric
  // section — everything before the trailing `failed` bit — must be
  // rejected, and no tear anywhere may be UB.
  const size_t numeric_end = full.size() - stats.failure.size() - 2;
  for (size_t len = 0; len < numeric_end; ++len) {
    RunStats torn;
    EXPECT_FALSE(DecodeRunStats(full.substr(0, len), &torn))
        << "numeric prefix of " << len << " bytes decoded";
  }
  for (size_t len = numeric_end; len <= full.size(); ++len) {
    RunStats torn;
    DecodeRunStats(full.substr(0, len), &torn);  // Must not crash.
  }
}

TEST(CkptCorruptionTest, JournalHealsCorruptTails) {
  const std::string path = ::testing::TempDir() + "/elsc_corrupt_journal";
  const uint64_t matrix_id = 0x5eedULL;
  {
    RunJournal journal;
    ASSERT_TRUE(journal.Open(path, matrix_id, 4));
    journal.Append(0, 1, "payload zero");
    journal.Append(1, 2, "payload one\nwith newline");
  }
  std::string full;
  ASSERT_TRUE(ReadFileToString(path, &full));

  // Tear the file at every byte past the header: reopening must keep the
  // valid prefix (possibly zero entries) and never crash.
  const size_t header_end = full.find('\n') + 1;
  for (size_t len = header_end; len <= full.size(); ++len) {
    ASSERT_TRUE(AtomicWriteFile(path, full.substr(0, len), nullptr));
    RunJournal journal;
    ASSERT_TRUE(journal.Open(path, matrix_id, 4)) << "torn at " << len;
    EXPECT_LE(journal.entries().size(), 2u);
    for (const auto& [index, entry] : journal.entries()) {
      EXPECT_TRUE(index == 0 || index == 1);
      EXPECT_FALSE(entry.payload.empty());
    }
  }

  // A corrupt checksum drops that record but keeps the ones before it.
  std::string flipped = full;
  flipped[flipped.size() - 2] ^= 0x01;  // Inside the last record's payload.
  ASSERT_TRUE(AtomicWriteFile(path, flipped, nullptr));
  {
    RunJournal journal;
    ASSERT_TRUE(journal.Open(path, matrix_id, 4));
    EXPECT_EQ(journal.entries().size(), 1u);
    EXPECT_EQ(journal.entries().count(0), 1u);
  }

  // A header from a different matrix refuses to open at all (never heals
  // someone else's checkpoint into this run).
  ASSERT_TRUE(AtomicWriteFile(path, full, nullptr));
  {
    RunJournal journal;
    EXPECT_FALSE(journal.Open(path, 0xd00dULL, 4));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace elsc
