#include "src/api/scale_ckpt.h"

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/api/scale.h"
#include "src/base/atomic_file.h"
#include "src/base/fnv.h"
#include "src/base/knob.h"
#include "src/base/string_util.h"
#include "src/base/token_codec.h"
#include "src/harness/journal.h"

namespace elsc {

namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

uint64_t ScaleConfigFingerprint(const ScaleConfig& c) {
  std::string enc = "scalefp v1 ";
  // Scenario shape + per-node machine.
  AppendI64(&enc, c.rooms);
  AppendI64(&enc, c.rooms_per_node);
  AppendI64(&enc, static_cast<int64_t>(c.kernel));
  AppendI64(&enc, static_cast<int64_t>(c.scheduler));
  AppendU64(&enc, c.seed);
  // Lock-step / federation timing.
  AppendU64(&enc, c.window);
  AppendU64(&enc, c.fabric_latency);
  AppendU64(&enc, c.gossip_period);
  AppendU64(&enc, c.beacon_cycles);
  AppendU64(&enc, c.gossip_process_cycles);
  AppendU64(&enc, c.fabric_inbox_capacity);
  AppendU64(&enc, c.deadline);
  // Chat workload (every field of VolanoConfig shapes behavior).
  const VolanoConfig& v = c.chat;
  AppendI64(&enc, v.rooms);
  AppendI64(&enc, v.users_per_room);
  AppendI64(&enc, v.messages_per_user);
  AppendF64(&enc, v.yield_probability);
  AppendI64(&enc, v.max_yield_spin);
  AppendU64(&enc, v.yield_spin_cycles);
  AppendI64(&enc, v.lock_spin_yields);
  AppendU64(&enc, v.lock_acquire_cycles);
  AppendU64(&enc, v.accept_work_cycles);
  AppendU64(&enc, v.accept_latency_mean);
  AppendI64(&enc, v.connect_spin_yields);
  AppendI64(&enc, v.ack_spin_yields);
  AppendU64(&enc, v.compose_cycles);
  AppendU64(&enc, v.client_process_cycles);
  AppendU64(&enc, v.server_parse_cycles);
  AppendU64(&enc, v.broadcast_enqueue_cycles);
  AppendU64(&enc, v.server_write_cycles);
  AppendU64(&enc, v.syscall_cycles);
  AppendF64(&enc, v.work_jitter);
  AppendU64(&enc, v.socket_capacity);
  AppendU64(&enc, v.outqueue_capacity);
  AppendU64(&enc, v.churn ? 1 : 0);
  AppendU64(&enc, v.ack_timeout);
  AppendU64(&enc, v.backoff.base);
  AppendU64(&enc, v.backoff.max);
  AppendI64(&enc, v.backoff.max_retries);
  // Federation failure model.
  const FederationFaultPlan& f = c.faults;
  AppendU64(&enc, f.seed);
  AppendF64(&enc, f.node_crash_rate);
  AppendU64(&enc, f.crash_window_min);
  AppendU64(&enc, f.crash_window_span);
  AppendU64(&enc, f.down_windows_min);
  AppendU64(&enc, f.down_windows_span);
  AppendF64(&enc, f.link_partition_rate);
  AppendU64(&enc, f.partition_window_min);
  AppendU64(&enc, f.partition_window_span);
  AppendU64(&enc, f.partition_duration_min);
  AppendU64(&enc, f.partition_duration_span);
  AppendF64(&enc, f.loss_rate);
  AppendF64(&enc, f.dup_rate);
  // Recovery protocol.
  AppendU64(&enc, c.retransmit ? 1 : 0);
  AppendU64(&enc, c.retransmit_backoff.base);
  AppendU64(&enc, c.retransmit_backoff.max);
  AppendI64(&enc, c.retransmit_backoff.max_retries);
  AppendU64(&enc, c.retransmit_buffer);
  AppendU64(&enc, c.recovery_gap_span);
  AppendU64(&enc, c.fabric_lane_capacity);
  return Fnv1a64(enc);
}

ScaleCheckpointOptions ScaleCheckpointOptions::FromEnv() {
  ScaleCheckpointOptions opts;
  opts.path = StringEnv("ELSC_SCALE_CKPT");
  opts.every = IntEnv("ELSC_SCALE_CKPT_EVERY", static_cast<int64_t>(opts.every), 0, INT64_MAX);
  opts.keep = IntEnv("ELSC_SCALE_CKPT_KEEP", opts.keep);
  return opts;
}

std::string EncodeScaleCheckpoint(const ScaleCheckpoint& ck) {
  std::string out = StrFormat(
      "elscscale v4 fp=%016llx seed=%llu window=%llu nodes=%d\n",
      static_cast<unsigned long long>(ck.config_fp),
      static_cast<unsigned long long>(ck.seed),
      static_cast<unsigned long long>(ck.loop.window_index), ck.num_nodes);

  const ScaleRun& run = ck.run;
  out += "run ";
  AppendHex64(&out, run.digest);
  AppendU64(&out, run.messages_sent);
  AppendU64(&out, run.messages_delivered);
  AppendU64(&out, run.node_crashes);
  AppendU64(&out, run.node_restarts);
  AppendU64(&out, run.windows_degraded);
  AppendCounters(&out, run.fed, kFederationCounterFields);
  AppendU64(&out, run.peak_live_tasks);
  AppendU64(&out, run.peak_live_nodes);
  AppendU64(&out, run.peak_task_arena_bytes);
  AppendU64(&out, run.peak_live_sockets);
  AppendI64(&out, ck.loop.chats_done);
  AppendU64(&out, ck.loop.all_completed ? 1 : 0);
  AppendU64(&out, ck.loop.router_close_window);
  AppendU64(&out, ck.loop.inbox_close_window);
  out += '\n';

  out += "stats " + JournalEscape(EncodeRunStats(run.stats)) + "\n";

  out += "fabric ";
  AppendU64(&out, ck.fabric.closed ? 1 : 0);
  AppendCounters(&out, ck.fabric.stats, kFabricCounters);
  AppendU64(&out, ck.fabric.next_seq.size());
  for (uint64_t seq : ck.fabric.next_seq) {
    AppendU64(&out, seq);
  }
  out += '\n';

  for (const CkptNode& n : ck.nodes) {
    const NodeLifecycle& life = n.life;
    out += "node ";
    AppendI64(&out, life.index);
    AppendI64(&out, life.down ? 2 : 1);
    AppendI64(&out, life.incarnation);
    AppendU64(&out, life.clock_offset);
    AppendU64(&out, life.crashes);
    AppendU64(&out, life.restart_window);
    AppendU64(&out, life.chat_done ? 1 : 0);
    AppendU64(&out, life.banked_sent);
    AppendU64(&out, life.banked_delivered);
    AppendCounters(&out, n.fed, kFederationCounterFields);
    AppendU64(&out, life.room_ids.size());
    for (int room : life.room_ids) {
      AppendI64(&out, room);
    }
    out += '\n';
    if (life.carried_stats) {
      out += StrFormat("carried %d ", life.index) +
             JournalEscape(EncodeRunStats(*life.carried_stats)) + "\n";
    }
    for (const CkptArrival& a : n.arrivals) {
      out += "arr ";
      AppendI64(&out, life.index);
      AppendU64(&out, a.window);
      AppendU64(&out, a.arrival);
      AppendU64(&out, a.payload.id);
      AppendI64(&out, a.payload.sender);
      AppendI64(&out, a.payload.room);
      AppendU64(&out, a.payload.sent_at);
      AppendU64(&out, a.payload.payload);
      out += '\n';
    }
    if (!n.verify.empty()) {
      out += StrFormat("verify %d ", life.index) + JournalEscape(n.verify) + "\n";
    }
  }

  out += StrFormat("end %016llx\n",
                   static_cast<unsigned long long>(Fnv1a64(out)));
  return out;
}

bool DecodeScaleCheckpoint(const std::string& contents, ScaleCheckpoint* ck,
                           std::string* error) {
  *ck = ScaleCheckpoint{};
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  };

  bool saw_header = false;
  bool saw_run = false;
  bool saw_stats = false;
  bool saw_fabric = false;
  bool saw_end = false;
  size_t start = 0;
  size_t line_no = 0;
  while (start < contents.size()) {
    const size_t nl = contents.find('\n', start);
    if (nl == std::string::npos) {
      return fail(StrFormat("truncated: unterminated line %zu", line_no + 1));
    }
    const size_t line_start = start;
    const std::string line = contents.substr(start, nl - start);
    start = nl + 1;
    ++line_no;
    if (saw_end) {
      return fail("trailing data after the end record");
    }

    if (!saw_header) {
      unsigned long long fp = 0;
      unsigned long long seed = 0;
      unsigned long long window = 0;
      int nodes = 0;
      int consumed = -1;
      if (std::sscanf(line.c_str(), "elscscale v4 fp=%llx seed=%llu window=%llu nodes=%d%n",
                      &fp, &seed, &window, &nodes, &consumed) != 4 ||
          consumed != static_cast<int>(line.size())) {
        return fail("bad header (wrong magic or version): \"" + line + "\"");
      }
      if (nodes < 1) {
        return fail("bad header: node count < 1");
      }
      ck->config_fp = fp;
      ck->seed = seed;
      ck->loop.window_index = window;
      ck->num_nodes = nodes;
      saw_header = true;
      continue;
    }

    if (StartsWith(line, "run ")) {
      if (saw_run) {
        return fail("duplicate run record");
      }
      TokenReader tr(line.substr(4));
      ScaleRun& run = ck->run;
      FederationLoop& loop = ck->loop;
      bool ok = tr.Hex64(&run.digest) && tr.U64(&run.messages_sent) &&
                tr.U64(&run.messages_delivered) && tr.U64(&run.node_crashes) &&
                tr.U64(&run.node_restarts) && tr.U64(&run.windows_degraded) &&
                ReadCounters(&tr, &run.fed, kFederationCounterFields) &&
                tr.U64(&run.peak_live_tasks) && tr.U64(&run.peak_live_nodes) &&
                tr.U64(&run.peak_task_arena_bytes) && tr.U64(&run.peak_live_sockets) &&
                tr.Int(&loop.chats_done) && tr.Bool(&loop.all_completed) &&
                tr.U64(&loop.router_close_window) && tr.U64(&loop.inbox_close_window) &&
                tr.Done();
      if (!ok) {
        return fail(StrFormat("bad run record at line %zu", line_no));
      }
      saw_run = true;
      continue;
    }

    if (StartsWith(line, "stats ")) {
      std::string payload;
      if (saw_stats || !JournalUnescape(line.substr(6), &payload) ||
          !DecodeRunStats(payload, &ck->run.stats)) {
        return fail(StrFormat("bad stats record at line %zu", line_no));
      }
      saw_stats = true;
      continue;
    }

    if (StartsWith(line, "fabric ")) {
      if (saw_fabric) {
        return fail("duplicate fabric record");
      }
      TokenReader tr(line.substr(7));
      uint64_t lanes = 0;
      bool ok = tr.Bool(&ck->fabric.closed) &&
                ReadCounters(&tr, &ck->fabric.stats, kFabricCounters) && tr.U64(&lanes);
      if (!ok || lanes != static_cast<uint64_t>(ck->num_nodes)) {
        return fail(StrFormat("bad fabric record at line %zu", line_no));
      }
      ck->fabric.next_seq.resize(lanes);
      for (uint64_t l = 0; l < lanes; ++l) {
        if (!tr.U64(&ck->fabric.next_seq[l])) {
          return fail(StrFormat("bad fabric record at line %zu", line_no));
        }
      }
      if (!tr.Done()) {
        return fail(StrFormat("bad fabric record at line %zu", line_no));
      }
      saw_fabric = true;
      continue;
    }

    if (StartsWith(line, "node ")) {
      TokenReader tr(line.substr(5));
      CkptNode n;
      NodeLifecycle& life = n.life;
      int state = 0;
      uint64_t rooms = 0;
      bool ok = tr.Int(&life.index) && tr.Int(&state) && tr.Int(&life.incarnation) &&
                tr.U64(&life.clock_offset) && tr.U64(&life.crashes) &&
                tr.U64(&life.restart_window) && tr.Bool(&life.chat_done) &&
                tr.U64(&life.banked_sent) && tr.U64(&life.banked_delivered) &&
                ReadCounters(&tr, &n.fed, kFederationCounterFields) && tr.U64(&rooms);
      if (!ok || life.index < 0 || life.index >= ck->num_nodes ||
          (state != 1 && state != 2) || life.incarnation < 0 ||
          rooms > static_cast<uint64_t>(INT32_MAX)) {
        return fail(StrFormat("bad node record at line %zu", line_no));
      }
      life.down = state == 2;
      if (!ck->nodes.empty() && ck->nodes.back().life.index >= life.index) {
        return fail(StrFormat("node records out of order at line %zu", line_no));
      }
      life.room_ids.resize(rooms);
      for (uint64_t r = 0; r < rooms; ++r) {
        if (!tr.Int(&life.room_ids[r])) {
          return fail(StrFormat("bad node record at line %zu", line_no));
        }
      }
      if (!tr.Done()) {
        return fail(StrFormat("bad node record at line %zu", line_no));
      }
      ck->nodes.push_back(std::move(n));
      continue;
    }

    if (StartsWith(line, "carried ") || StartsWith(line, "verify ")) {
      const bool carried = StartsWith(line, "carried ");
      const char* kind = carried ? "carried" : "verify";
      const size_t skip = carried ? 8 : 7;
      // These records attach to the most recent node line.
      char* end = nullptr;
      const int owner = static_cast<int>(std::strtol(line.c_str() + skip, &end, 10));
      const size_t payload_at = static_cast<size_t>(end - line.c_str()) + 1;
      if (end == line.c_str() + skip || *end != ' ' || ck->nodes.empty() ||
          ck->nodes.back().life.index != owner) {
        return fail(StrFormat("orphaned %s record at line %zu", kind, line_no));
      }
      CkptNode& n = ck->nodes.back();
      std::string payload;
      bool ok = JournalUnescape(line.substr(payload_at), &payload);
      if (carried) {
        ok = ok && !n.life.carried_stats &&
             DecodeRunStats(payload, &n.life.carried_stats.emplace());
      } else {
        ok = ok && n.verify.empty();
        n.verify = std::move(payload);
      }
      if (!ok) {
        return fail(StrFormat("bad %s record at line %zu", kind, line_no));
      }
      continue;
    }

    if (StartsWith(line, "arr ")) {
      TokenReader tr(line.substr(4));
      CkptArrival a;
      int owner = -1;
      int64_t sender = 0;
      int64_t room = 0;
      bool ok = tr.Int(&owner) && tr.U64(&a.window) && tr.U64(&a.arrival) &&
                tr.U64(&a.payload.id) && tr.I64(&sender) && tr.I64(&room) &&
                tr.U64(&a.payload.sent_at) && tr.U64(&a.payload.payload) &&
                tr.Done();
      if (!ok || ck->nodes.empty() || ck->nodes.back().life.index != owner) {
        return fail(StrFormat("bad arr record at line %zu", line_no));
      }
      a.payload.sender = static_cast<int>(sender);
      a.payload.room = static_cast<int>(room);
      // Arrival logs are appended in barrier order; enforce it so a replay
      // cursor can trust the ordering.
      if (!ck->nodes.back().arrivals.empty() &&
          ck->nodes.back().arrivals.back().window > a.window) {
        return fail(StrFormat("arr records out of order at line %zu", line_no));
      }
      ck->nodes.back().arrivals.push_back(a);
      continue;
    }

    if (StartsWith(line, "end ")) {
      TokenReader tr(line.substr(4));
      uint64_t sum = 0;
      if (!tr.Hex64(&sum) || !tr.Done()) {
        return fail("bad end record");
      }
      if (Fnv1a64(std::string_view(contents).substr(0, line_start)) != sum) {
        return fail("checksum mismatch (torn or bit-flipped segment)");
      }
      saw_end = true;
      continue;
    }

    return fail(StrFormat("unknown record at line %zu: \"%.32s\"", line_no,
                          line.c_str()));
  }

  if (!saw_header || !saw_run || !saw_stats || !saw_fabric || !saw_end) {
    return fail("incomplete segment (missing header/run/stats/fabric/end)");
  }
  return true;
}

std::string CheckpointSegmentPath(const std::string& prefix, uint64_t config_fp,
                                  uint64_t window) {
  return prefix + StrFormat(".%016llx.w%llu.ckpt",
                            static_cast<unsigned long long>(config_fp),
                            static_cast<unsigned long long>(window));
}

std::vector<CheckpointSegmentInfo> ListCheckpointSegments(
    const std::string& prefix, uint64_t config_fp) {
  std::vector<CheckpointSegmentInfo> segments;
  const size_t slash = prefix.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : prefix.substr(0, slash);
  const std::string base =
      slash == std::string::npos ? prefix : prefix.substr(slash + 1);
  const std::string stem =
      base + StrFormat(".%016llx.w", static_cast<unsigned long long>(config_fp));

  DIR* d = ::opendir(dir.empty() ? "/" : dir.c_str());
  if (d == nullptr) {
    return segments;
  }
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() <= stem.size() + 5 || name.rfind(stem, 0) != 0 ||
        name.compare(name.size() - 5, 5, ".ckpt") != 0) {
      continue;
    }
    const std::string digits = name.substr(stem.size(), name.size() - stem.size() - 5);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    CheckpointSegmentInfo info;
    info.window = std::strtoull(digits.c_str(), nullptr, 10);
    info.path = (dir == "." && slash == std::string::npos ? name : dir + "/" + name);
    segments.push_back(std::move(info));
  }
  ::closedir(d);
  std::sort(segments.begin(), segments.end(),
            [](const CheckpointSegmentInfo& a, const CheckpointSegmentInfo& b) {
              return a.window > b.window;
            });
  return segments;
}

bool WriteCheckpointSegment(const ScaleCheckpointOptions& options,
                            const ScaleCheckpoint& ckpt, std::string* error) {
  const std::string path =
      CheckpointSegmentPath(options.path, ckpt.config_fp, ckpt.loop.window_index);
  if (!AtomicWriteFile(path, EncodeScaleCheckpoint(ckpt), error)) {
    return false;
  }
  const int keep = options.keep >= 1 ? options.keep : 1;
  const auto segments = ListCheckpointSegments(options.path, ckpt.config_fp);
  for (size_t i = static_cast<size_t>(keep); i < segments.size(); ++i) {
    std::remove(segments[i].path.c_str());
  }
  return true;
}

void RemoveCheckpointSegments(const std::string& prefix, uint64_t config_fp) {
  for (const CheckpointSegmentInfo& seg :
       ListCheckpointSegments(prefix, config_fp)) {
    std::remove(seg.path.c_str());
  }
}

}  // namespace elsc
