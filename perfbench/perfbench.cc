// perfbench: one repetition of one benchmark workload, timed from outside the
// simulator, with its simulated output checked.
//
//   perfbench <workload> --seed N --mode run   [--setup-samples K]
//   perfbench <workload> --seed N --mode trace [--scratch DIR]
//   perfbench --host
//
// `run` builds a fresh simulation through the public API, times set-up and
// the simulation proper, reads the process's resident memory, and checks the
// result. `trace` runs the workload untraced and traced, proves the tracing
// inert, and measures the per-layer numbers (a timing Scheduler decorator and
// standalone layer probes sized from the run's own counters). Each mode
// prints one JSON object on one line. perfbench/run.py drives this binary —
// one process per repetition, so peak RSS belongs to one run — and
// aggregates; perfbench/README.md documents the workloads and metrics.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/probes.h"
#include "perfbench/timing_scheduler.h"
#include "src/api/overload.h"
#include "src/api/scale.h"
#include "src/api/scale_ckpt.h"
#include "src/api/simulation.h"
#include "src/base/string_util.h"
#include "src/harness/run_matrix.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using elsc::StrFormat;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Seconds each standalone probe loops for.
constexpr double kProbeSeconds = 0.25;

// ---- Host ------------------------------------------------------------------

// CPUs this process may run on (what `nproc` prints).
int HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return std::max(1, CPU_COUNT(&set));
}

// A /proc/self/status field in kB (VmRSS, VmHWM), or 0 when unreadable.
uint64_t StatusKb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size() + 1, key + ":") == 0) {
      return std::strtoull(line.c_str() + key.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

// FNV-1a-64, for printing long digest strings compactly.
uint64_t Fnv(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h = (h ^ c) * 0x100000001b3ull;
  }
  return h;
}

// ---- Workloads --------------------------------------------------------------

// The paper's VolanoMark cell: 20 rooms x 20 users x 100 messages on the SMP
// kernel with 4 CPUs under the stock linux scheduler.
elsc::VolanoConfig VolanoChat() {
  elsc::VolanoConfig c;
  c.rooms = 20;
  c.users_per_room = 20;
  c.messages_per_user = 100;
  return c;
}
elsc::MachineConfig VolanoMachine(uint64_t seed) {
  return elsc::MakeMachineConfig(elsc::KernelConfig::kSmp4, elsc::SchedulerKind::kLinux, seed);
}

// 1,000 rooms x 20 users x 10 messages, one room per 1-CPU ELSC node, gossip
// on, faults off; shards = min(4, host CPUs).
elsc::ScaleConfig FederationConfig(uint64_t seed) {
  elsc::ScaleConfig c;
  c.rooms = 1000;
  c.rooms_per_node = 1;
  c.chat.users_per_room = 20;
  c.chat.messages_per_user = 10;
  c.kernel = elsc::KernelConfig::kSmp1;
  c.scheduler = elsc::SchedulerKind::kElsc;
  c.seed = seed;
  c.window_wall_budget_sec = -1.0;  // No watchdog: the bench times the run.
  return c;
}
int FederationShards() { return std::min(4, HostCpus()); }

// Open-loop web server past saturation: Poisson arrivals at 1.25x the
// nominal saturation rate of 4 CPUs, resilience layer on, O(1) backend.
constexpr double kWebLoadFactor = 1.25;
constexpr int kWebSimSeconds = 400;
elsc::MachineConfig WebMachine(uint64_t seed) {
  return elsc::MakeMachineConfig(elsc::KernelConfig::kSmp4, elsc::SchedulerKind::kO1, seed);
}
elsc::WebserverConfig WebConfig() {
  elsc::WebserverConfig c = elsc::OverloadBaseConfig(elsc::SecToCycles(kWebSimSeconds));
  c.arrival_rate_per_sec =
      elsc::WebserverSaturationRate(c, WebMachine(1).num_cpus) * kWebLoadFactor;
  return c;
}

// Simulated-time safety net for Machine-hosted runs.
constexpr elsc::Cycles kDeadline = elsc::SecToCycles(3600);

// DeriveSeed stream keys for machines the bench builds beside a federation
// (set-up timing, scheduler replicas); any value apart from the runner's own.
constexpr uint64_t kSetupSeedKey = 0x5e7;
constexpr uint64_t kReplicaSeedKey = 0x7e9;

// ---- Machine-hosted runs (Volano, web server) -------------------------------

struct HostedRun {
  std::string error;  // Empty iff the run completed and its output checked out.
  double setup_s = 0.0;
  double run_s = 0.0;
  elsc::RunStats stats;
  // RunStatsDigest plus the workload result: equal iff bit-identical runs.
  std::string digest;
  uint64_t connections = 0;
  std::vector<std::string> socket_names;  // One per socket the workload built.
  double sim_throughput = 0.0;  // Per simulated second.
  uint64_t accept_max_depth = 0;  // Web server only.
  uint64_t web_p99_us = 0;        // Web server only.
};

// The same counters the public facade (src/api/simulation.cc) collects.
template <typename Workload>
elsc::RunStats CollectStats(const elsc::Machine& machine, const Workload& workload) {
  elsc::RunStats stats;
  stats.sched = machine.scheduler().stats();
  stats.machine = machine.stats();
  stats.events = machine.engine().queue_stats();
  stats.memory.task_arena_bytes = machine.task_arena_bytes();
  stats.memory.task_arena_chunks = machine.task_arena_stats().chunks;
  stats.memory.peak_live_sockets = workload.SocketCount();
  stats.elapsed_sec = elsc::CyclesToSec(machine.Now());
  return stats;
}

void Summarize(const elsc::VolanoWorkload& w, bool done, HostedRun* out) {
  const elsc::VolanoResult r = w.Result();
  const elsc::VolanoConfig& c = w.config();
  out->connections = static_cast<uint64_t>(c.rooms) * static_cast<uint64_t>(c.users_per_room);
  for (int room = 0; room < c.rooms; ++room) {
    for (int member = 0; member < c.users_per_room; ++member) {
      for (const char* kind : {"c2s", "s2c", "outq", "ack"}) {
        out->socket_names.push_back(StrFormat("r%d.u%d.%s", room, member, kind));
      }
    }
  }
  out->socket_names.push_back("server.accept");
  out->sim_throughput = r.throughput;
  out->digest = elsc::RunStatsDigest(out->stats) +
                StrFormat("|volano:%d,%llu,%llu,%a", r.completed ? 1 : 0,
                          static_cast<unsigned long long>(r.messages_sent),
                          static_cast<unsigned long long>(r.messages_delivered), r.elapsed_sec);
  if (!done || !r.completed) {
    out->error = "volano run did not complete";
  } else if (out->stats.failed) {
    out->error = "volano run failed: " + out->stats.failure;
  } else if (r.messages_delivered != c.expected_deliveries()) {
    out->error = StrFormat("volano delivered %llu, expected rooms*users^2*msgs = %llu",
                           static_cast<unsigned long long>(r.messages_delivered),
                           static_cast<unsigned long long>(c.expected_deliveries()));
  }
}

void Summarize(const elsc::WebserverWorkload& w, bool done, HostedRun* out) {
  const elsc::WebserverResult r = w.Result();
  // Every request is one accepted connection (prefork, no keep-alive).
  out->connections = r.requests_arrived;
  out->socket_names = {"httpd.accept"};
  out->sim_throughput = r.throughput;
  out->accept_max_depth = w.accept_queue_stats().max_depth;
  out->web_p99_us = r.latency_p99_us;
  out->digest = elsc::RunStatsDigest(out->stats) +
                StrFormat("|web:%llu,%llu,%llu,%llu,%llu,%llu,%a",
                          static_cast<unsigned long long>(r.requests_arrived),
                          static_cast<unsigned long long>(r.requests_completed),
                          static_cast<unsigned long long>(r.requests_dropped),
                          static_cast<unsigned long long>(r.retries),
                          static_cast<unsigned long long>(r.latency_p50_us),
                          static_cast<unsigned long long>(r.latency_p99_us), r.throughput);
  if (!done) {
    out->error = "web server did not drain";
  } else if (out->stats.failed) {
    out->error = "web server run failed: " + out->stats.failure;
  } else if (r.requests_arrived == 0) {
    out->error = "web server saw no arrivals";
  } else if (r.requests_completed + r.requests_dropped != r.requests_arrived) {
    out->error = StrFormat("web server completed %llu + dropped %llu != arrived %llu",
                           static_cast<unsigned long long>(r.requests_completed),
                           static_cast<unsigned long long>(r.requests_dropped),
                           static_cast<unsigned long long>(r.requests_arrived));
  }
}

// Builds Machine + workload (timed as set-up), runs it to completion (timed
// as the run), and checks it. With `spans`, the scheduler is wrapped in a
// TimingScheduler that records into *spans.
template <typename Workload, typename Config>
HostedRun RunHosted(elsc::MachineConfig mc, const Config& wc, SchedSpans* spans) {
  if (spans != nullptr) {
    const elsc::SchedulerKind kind = mc.scheduler;
    const elsc::ElscOptions elsc_options = mc.elsc;
    mc.scheduler_factory = [kind, elsc_options, spans](const elsc::CostModel& cost,
                                                       elsc::TaskList* tasks,
                                                       const elsc::SchedulerConfig& sc)
        -> std::unique_ptr<elsc::Scheduler> {
      return std::make_unique<TimingScheduler>(
          elsc::MakeScheduler(kind, cost, tasks, sc, elsc_options), spans, cost, tasks, sc);
    };
  }
  HostedRun out;
  const auto t0 = Clock::now();
  elsc::Machine machine(mc);
  Workload workload(machine, wc);
  workload.Setup();
  out.setup_s = Since(t0);
  const auto t1 = Clock::now();
  machine.Start();
  const bool done = machine.RunUntil([&workload] { return workload.Done(); }, kDeadline);
  out.run_s = Since(t1);
  out.stats = CollectStats(machine, workload);
  if (spans != nullptr) {
    out.stats.sched = static_cast<const TimingScheduler&>(machine.scheduler()).MergedStats();
  }
  Summarize(workload, done, &out);
  return out;
}

// Set-up alone: Machine + workload built and Setup(), then torn down.
template <typename Workload, typename Config>
double TimeHostedSetup(const elsc::MachineConfig& mc, const Config& wc) {
  const auto t0 = Clock::now();
  elsc::Machine machine(mc);
  Workload workload(machine, wc);
  workload.Setup();
  return Since(t0);
}

// ---- Federation ------------------------------------------------------------

struct FederationRun {
  std::string error;
  double run_s = 0.0;
  elsc::ScaleRun run;
};

FederationRun RunFederation(const elsc::ScaleConfig& c, int shards) {
  FederationRun out;
  const auto t0 = Clock::now();
  out.run = elsc::RunShardedVolano(c, shards);
  out.run_s = Since(t0);
  const uint64_t expected = static_cast<uint64_t>(c.rooms) *
                            static_cast<uint64_t>(c.chat.users_per_room) *
                            static_cast<uint64_t>(c.chat.users_per_room) *
                            static_cast<uint64_t>(c.chat.messages_per_user);
  if (!out.run.completed) {
    out.error = "federation did not complete";
  } else if (out.run.stats.failed) {
    out.error = "federation failed: " + out.run.stats.failure;
  } else if (out.run.messages_delivered != expected) {
    out.error = StrFormat("federation delivered %llu, expected rooms*users^2*msgs = %llu",
                          static_cast<unsigned long long>(out.run.messages_delivered),
                          static_cast<unsigned long long>(expected));
  }
  return out;
}

// Federation set-up from outside: boots every node the way the sharded
// runner does (Machine + one-room VolanoWorkload + Setup + fabric inbox +
// Start), all nodes live at once, and returns the seconds it took. The two
// federation relay tasks per node are private to the runner and not built.
double TimeFederationSetup(const elsc::ScaleConfig& c) {
  struct Node {
    std::unique_ptr<elsc::Machine> machine;
    std::unique_ptr<elsc::VolanoWorkload> chat;
    std::unique_ptr<elsc::SimSocket> inbox;
  };
  std::vector<Node> nodes(static_cast<size_t>(c.nodes()));
  const auto t0 = Clock::now();
  for (int i = 0; i < c.nodes(); ++i) {
    Node& node = nodes[static_cast<size_t>(i)];
    const uint64_t seed = elsc::DeriveSeed(c.seed, kSetupSeedKey, static_cast<uint64_t>(i));
    node.machine =
        std::make_unique<elsc::Machine>(elsc::MakeMachineConfig(c.kernel, c.scheduler, seed));
    elsc::VolanoConfig chat = c.chat;
    chat.rooms = std::min(c.rooms_per_node, c.rooms - i * c.rooms_per_node);
    node.chat = std::make_unique<elsc::VolanoWorkload>(*node.machine, chat);
    node.chat->Setup();
    if (c.gossip_period > 0) {
      node.inbox = std::make_unique<elsc::SimSocket>(StrFormat("node%d.fabric.in", i),
                                                     c.fabric_inbox_capacity);
    }
    node.machine->Start();
  }
  return Since(t0);
}

// ---- JSON output ------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += StrFormat("\\u%04x", ch);
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

// An ordered JSON object of numbers and strings, printed on one line.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    return Raw(key, StrFormat("%.17g", value));
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, JsonString(value));
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + JsonString(key) + ": " + json;
    return *this;
  }
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += StrFormat(i == 0 ? "%.17g" : ", %.17g", values[i]);
  }
  return out + "]";
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---- Run mode --------------------------------------------------------------

struct Args {
  std::string workload;
  std::string mode = "run";
  uint64_t seed = 42;
  int setup_samples = 5;
  std::string scratch = ".bench_build/perfbench-scratch";
};

std::string RunMode(const Args& a) {
  JsonObject out;
  const uint64_t rss_base_kb = StatusKb("VmRSS");
  std::vector<double> setup_s;
  std::string error;
  std::string digest;
  double run_s = 0.0;
  uint64_t events = 0;
  uint64_t connections = 0;
  uint64_t peak_rss_kb = 0;
  int shards = 1;
  if (a.workload == "federation_20k_elsc") {
    const elsc::ScaleConfig c = FederationConfig(a.seed);
    shards = FederationShards();
    const FederationRun r = RunFederation(c, shards);
    peak_rss_kb = StatusKb("VmHWM");
    error = r.error;
    run_s = r.run_s;
    events = r.run.stats.events.fired;
    connections = r.run.connections;
    digest = StrFormat("%016llx", static_cast<unsigned long long>(r.run.digest));
    for (int i = 0; i < a.setup_samples; ++i) {
      setup_s.push_back(TimeFederationSetup(c));
    }
  } else {
    HostedRun r;
    if (a.workload == "volano_4p_linux") {
      r = RunHosted<elsc::VolanoWorkload>(VolanoMachine(a.seed), VolanoChat(), nullptr);
    } else {
      r = RunHosted<elsc::WebserverWorkload>(WebMachine(a.seed), WebConfig(), nullptr);
    }
    peak_rss_kb = StatusKb("VmHWM");
    error = r.error;
    run_s = r.run_s;
    events = r.stats.events.fired;
    connections = r.connections;
    digest = StrFormat("%016llx", static_cast<unsigned long long>(Fnv(r.digest)));
    setup_s.push_back(r.setup_s);
    for (int i = 1; i < a.setup_samples; ++i) {
      setup_s.push_back(a.workload == "volano_4p_linux"
                            ? TimeHostedSetup<elsc::VolanoWorkload>(VolanoMachine(a.seed),
                                                                    VolanoChat())
                            : TimeHostedSetup<elsc::WebserverWorkload>(WebMachine(a.seed),
                                                                       WebConfig()));
    }
  }
  out.Raw("ok", error.empty() ? "true" : "false").Str("error", error);
  out.Str("digest", digest).Num("shards", shards);
  out.Num("run_s", run_s).Raw("setup_s", NumList(setup_s));
  out.Num("events", static_cast<double>(events));
  out.Num("connections", static_cast<double>(connections));
  out.Num("rss_base_kb", static_cast<double>(rss_base_kb));
  out.Num("peak_rss_kb", static_cast<double>(peak_rss_kb));
  return out.Render();
}

// ---- Trace mode ------------------------------------------------------------

// Per-layer numbers derived from a TimingScheduler's spans over a traced run
// of `traced_wall_s` host seconds that fired `events` events.
void SchedMetrics(const SchedSpans& spans, double traced_wall_s, uint64_t events,
                  JsonObject* m, JsonObject* detail) {
  const double clock_ns = ClockSpanNs();
  detail->Num("trace.clock_span_ns", clock_ns);
  const double picks = static_cast<double>(spans.pick_ns.size());
  const double pick_ns = Ratio(static_cast<double>(spans.pick_total_ns), picks) - clock_ns;
  std::vector<uint32_t> sorted = spans.pick_ns;
  double p99 = 0.0;
  if (!sorted.empty()) {
    const size_t k = static_cast<size_t>(0.99 * static_cast<double>(sorted.size() - 1));
    std::nth_element(sorted.begin(), sorted.begin() + static_cast<ptrdiff_t>(k), sorted.end());
    p99 = static_cast<double>(sorted[k]) - clock_ns;
  }
  const double queue_ops = static_cast<double>(spans.queue_ops);
  const double queue_ns =
      Ratio(static_cast<double>(spans.queue_total_ns), queue_ops) - clock_ns;
  const double wall_ns = traced_wall_s * 1e9;
  const double pick_span_ns = std::max(0.0, pick_ns) * picks;
  const double sched_span_ns = pick_span_ns + std::max(0.0, queue_ns) * queue_ops;
  m->Num("sched.pick_ns", pick_ns);
  m->Num("sched.pick_ns_p99", p99);
  m->Num("sched.pick_share", 100.0 * Ratio(pick_span_ns, wall_ns));
  m->Num("sched.queue_op_ns", queue_ns);
  m->Num("smp.rest_ns_per_event", Ratio(wall_ns - sched_span_ns, static_cast<double>(events)));
}

// Metrics every workload reports from its RunStats (exact counters).
void StatsMetrics(const elsc::RunStats& s, uint64_t peak_live_tasks, uint64_t arena_bytes,
                  JsonObject* m) {
  m->Num("sched.examined_per_pick", s.sched.TasksExaminedPerCall());
  m->Num("sched.sim_cycles_per_schedule", s.sched.CyclesPerSchedule());
  m->Num("sim.events", static_cast<double>(s.events.fired));
  m->Num("sim.max_heap_depth", static_cast<double>(s.events.max_heap_depth));
  m->Num("sim.cancel_ratio", Ratio(static_cast<double>(s.events.cancelled),
                                   static_cast<double>(s.events.scheduled)));
  m->Num("sim.callback_heap_allocs", static_cast<double>(s.events.callback_heap_allocs));
  m->Num("smp.context_switches", static_cast<double>(s.machine.context_switches));
  m->Num("smp.percpu_lock_contended", static_cast<double>(s.sched.percpu_lock_contended));
  m->Num("smp.arena_bytes_per_task",
         Ratio(static_cast<double>(arena_bytes), static_cast<double>(peak_live_tasks)));
}

// Standalone probes every workload reports, sized from its own counters.
struct ProbeSizes {
  uint64_t heap_depth = 0;
  double cancel_ratio = 0.0;
  uint64_t deep_depth = 0;  // Held depth of the deep-queue probe.
  std::vector<std::string> socket_names;
  uint64_t connections = 0;
  double bytes_per_connection = 0.0;  // RSS growth of this process's first run.
};

void ProbeMetrics(const ProbeSizes& p, uint64_t seed, JsonObject* m) {
  m->Num("sim.queue_ns_per_op",
         ProbeEventQueueNsPerOp(p.heap_depth, p.cancel_ratio, seed, kProbeSeconds));
  const size_t wire_capacity = VolanoChat().socket_capacity;
  const size_t deep_capacity = WebConfig().accept_queue_capacity;
  m->Num("net.shallow_msg_ns", ProbeSocketRoundTripNs(wire_capacity, 0, kProbeSeconds));
  m->Num("net.deep_msg_ns", ProbeSocketRoundTripNs(deep_capacity, p.deep_depth, kProbeSeconds));
  // Cycle the workload's socket names up to a floor: the allocator's
  // per-thread cache serves a few frees back without touching the counters
  // mallinfo2 reads, which only matters when the workload has few sockets.
  constexpr size_t kMinProbeSockets = 4096;
  std::vector<std::string> names = p.socket_names;
  for (size_t i = 0; !p.socket_names.empty() && names.size() < kMinProbeSockets; ++i) {
    names.push_back(p.socket_names[i % p.socket_names.size()]);
  }
  const double bytes_per_socket = ProbeBytesPerSocket(names, wire_capacity);
  const double sockets_per_connection =
      Ratio(static_cast<double>(p.socket_names.size()), static_cast<double>(p.connections));
  m->Num("net.bytes_per_socket", bytes_per_socket);
  m->Num("net.sockets_per_connection", sockets_per_connection);
  m->Num("net.socket_share_of_connection",
         100.0 * Ratio(bytes_per_socket * sockets_per_connection, p.bytes_per_connection));
}

std::string Repro(const Args& a) {
  return StrFormat("repro: python3 perfbench/run.py --workload %s --seed %llu --trace 1",
                   a.workload.c_str(), static_cast<unsigned long long>(a.seed));
}

template <typename Workload, typename Config>
std::string TraceHosted(const Args& a, const elsc::MachineConfig& mc, const Config& wc) {
  JsonObject m;
  JsonObject detail;
  const uint64_t rss_base_kb = StatusKb("VmRSS");
  const HostedRun ref = RunHosted<Workload>(mc, wc, nullptr);
  const double bytes_per_connection =
      Ratio(static_cast<double>(StatusKb("VmHWM") - rss_base_kb) * 1024.0,
            static_cast<double>(ref.connections));
  // Untraced, traced, traced, untraced: host speed drifts, and the ABBA order
  // lets the overhead ratio cancel a linear drift.
  SchedSpans spans;
  const HostedRun traced = RunHosted<Workload>(mc, wc, &spans);
  const HostedRun traced2 = RunHosted<Workload>(mc, wc, &spans);
  const HostedRun ref2 = RunHosted<Workload>(mc, wc, nullptr);
  std::string error;
  for (const HostedRun* r : {&ref, &traced, &traced2, &ref2}) {
    if (error.empty() && !r->error.empty()) {
      error = r->error + "; " + Repro(a);
    }
    if (error.empty() && r->digest != ref.digest) {
      error = StrFormat("tracing is not inert: digest %016llx != untraced %016llx; %s",
                        static_cast<unsigned long long>(Fnv(r->digest)),
                        static_cast<unsigned long long>(Fnv(ref.digest)), Repro(a).c_str());
    }
  }
  const double traced_s = traced.run_s + traced2.run_s;
  const double untraced_s = ref.run_s + ref2.run_s;
  const uint64_t events = traced.stats.events.fired;
  SchedMetrics(spans, traced_s, 2 * events, &m, &detail);
  StatsMetrics(traced.stats, traced.stats.machine.peak_live_tasks,
               traced.stats.memory.task_arena_bytes, &m);
  m.Num("sim.ns_per_event", Ratio(untraced_s * 1e9, 2.0 * static_cast<double>(events)));
  ProbeSizes sizes;
  sizes.heap_depth = traced.stats.events.max_heap_depth;
  sizes.cancel_ratio = Ratio(static_cast<double>(traced.stats.events.cancelled),
                             static_cast<double>(traced.stats.events.scheduled));
  const size_t deep_capacity = WebConfig().accept_queue_capacity;
  sizes.deep_depth = ref.accept_max_depth > 0
                         ? std::min<uint64_t>(ref.accept_max_depth, deep_capacity - 1)
                         : deep_capacity - 1;
  sizes.socket_names = ref.socket_names;
  sizes.connections = ref.connections;
  sizes.bytes_per_connection = bytes_per_connection;
  ProbeMetrics(sizes, a.seed, &m);
  m.Num("workloads.sim_throughput", traced.sim_throughput);
  m.Num("trace.overhead_pct", 100.0 * (Ratio(traced_s, untraced_s) - 1.0));
  detail.Num("untraced_run_s", untraced_s / 2).Num("traced_run_s", traced_s / 2);
  detail.Num("bytes_per_connection", bytes_per_connection);
  detail.Str("digest", StrFormat("%016llx", static_cast<unsigned long long>(Fnv(ref.digest))));
  if (ref.accept_max_depth > 0) {
    detail.Num("workloads.web_goodput_rps", traced.sim_throughput);
    detail.Num("workloads.web_p99_us", static_cast<double>(traced.web_p99_us));
    detail.Num("net.accept_max_depth", static_cast<double>(ref.accept_max_depth));
  } else {
    detail.Num("workloads.volano_sim_throughput", traced.sim_throughput);
  }
  JsonObject out;
  out.Raw("ok", error.empty() ? "true" : "false").Str("error", error);
  out.Raw("metrics", m.Render()).Raw("detail", detail.Render());
  return out.Render();
}

// The checkpoint codec probe: stops a run of `c` at `stop_window` (forcing a
// segment), times decoding, re-encoding and writing that segment, then times
// a resume from it. Returns an error when the resumed digest differs from
// `want_digest` or the codec does not round-trip the segment exactly.
std::string CkptProbe(const Args& a, const elsc::ScaleConfig& base, int shards,
                      uint64_t stop_window, uint64_t want_digest, JsonObject* detail) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(a.scratch) / StrFormat("ckpt-%llu", static_cast<unsigned long long>(a.seed));
  fs::remove_all(dir);
  fs::create_directories(dir);
  elsc::ScaleConfig c = base;
  c.ckpt.path = (dir / "fed").string();
  c.ckpt.every = 0;  // Forced segment only.
  c.ckpt.keep = 1;
  c.ckpt.stop_after_window = stop_window;
  const uint64_t fp = elsc::ScaleConfigFingerprint(c);
  std::string error;
  elsc::RunShardedVolano(c, shards);
  const std::vector<elsc::CheckpointSegmentInfo> segments =
      elsc::ListCheckpointSegments(c.ckpt.path, fp);
  if (segments.empty()) {
    fs::remove_all(dir);
    return StrFormat("no checkpoint segment written at window %llu; %s",
                     static_cast<unsigned long long>(stop_window), Repro(a).c_str());
  }
  std::ifstream in(segments.front().path, std::ios::binary);
  const std::string contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  constexpr int kCodecReps = 5;
  std::vector<double> decode_ms;
  std::vector<double> encode_ms;
  std::vector<double> write_ms;
  elsc::ScaleCheckpoint ckpt;
  std::string encoded;
  for (int i = 0; i < kCodecReps; ++i) {
    std::string decode_error;
    auto t0 = Clock::now();
    const bool decoded = elsc::DecodeScaleCheckpoint(contents, &ckpt, &decode_error);
    decode_ms.push_back(Since(t0) * 1e3);
    if (!decoded) {
      error = "checkpoint segment does not decode: " + decode_error + "; " + Repro(a);
      break;
    }
    t0 = Clock::now();
    encoded = elsc::EncodeScaleCheckpoint(ckpt);
    encode_ms.push_back(Since(t0) * 1e3);
    elsc::ScaleCheckpointOptions probe = c.ckpt;
    probe.path = (dir / "probe").string();
    std::string write_error;
    t0 = Clock::now();
    elsc::WriteCheckpointSegment(probe, ckpt, &write_error);
    write_ms.push_back(Since(t0) * 1e3);
  }
  if (error.empty() && encoded != contents) {
    error = "checkpoint codec does not round-trip the segment; " + Repro(a);
  }
  c.ckpt.stop_after_window = 0;
  const auto t0 = Clock::now();
  const elsc::ScaleRun resumed = elsc::RunShardedVolano(c, shards);
  const double resume_s = Since(t0);
  if (error.empty() && resumed.digest != want_digest) {
    error = StrFormat("resume from window %llu reached digest %016llx, uninterrupted %016llx; %s",
                      static_cast<unsigned long long>(stop_window),
                      static_cast<unsigned long long>(resumed.digest),
                      static_cast<unsigned long long>(want_digest), Repro(a).c_str());
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
  };
  detail->Num("ckpt.stop_after_window", static_cast<double>(stop_window));
  detail->Num("ckpt.segment_bytes", static_cast<double>(contents.size()));
  detail->Num("ckpt.decode_ms", median(decode_ms));
  detail->Num("ckpt.encode_ms", median(encode_ms));
  detail->Num("ckpt.write_ms", median(write_ms));
  detail->Num("ckpt.resume_s", resume_s);
  fs::remove_all(dir);
  return error;
}

std::string TraceFederation(const Args& a) {
  JsonObject m;
  JsonObject detail;
  const elsc::ScaleConfig c = FederationConfig(a.seed);
  const int shards = FederationShards();
  const uint64_t rss_base_kb = StatusKb("VmRSS");
  const FederationRun ref = RunFederation(c, shards);
  const double bytes_per_connection =
      Ratio(static_cast<double>(StatusKb("VmHWM") - rss_base_kb) * 1024.0,
            static_cast<double>(ref.run.connections));
  std::string error = ref.error;
  const elsc::ScaleRun& run = ref.run;

  // Determinism across shard counts: the 1-shard run must match.
  const FederationRun one = RunFederation(c, 1);
  if (error.empty() && one.run.digest != run.digest) {
    error = StrFormat("federation digest at 1 shard %016llx != at %d shards %016llx; %s",
                      static_cast<unsigned long long>(one.run.digest), shards,
                      static_cast<unsigned long long>(run.digest), Repro(a).c_str());
  }
  const std::string ckpt_error =
      CkptProbe(a, c, shards, std::max<uint64_t>(1, run.windows / 2), run.digest, &detail);
  if (error.empty()) {
    error = ckpt_error;
  }

  // RunShardedVolano has no scheduler seam, so the scheduler layer is traced
  // on stand-alone replicas of the first nodes (same kernel, backend and
  // per-node chat, no relays), each run untraced and traced.
  const int replicas = std::min(c.nodes(), 50);
  SchedSpans spans;
  double replica_ref_s = 0.0;
  double replica_traced_s = 0.0;
  uint64_t replica_events = 0;
  for (int i = 0; i < replicas; ++i) {
    const elsc::MachineConfig mc = elsc::MakeMachineConfig(
        c.kernel, c.scheduler, elsc::DeriveSeed(c.seed, kReplicaSeedKey, static_cast<uint64_t>(i)));
    elsc::VolanoConfig chat = c.chat;
    chat.rooms = c.rooms_per_node;
    const HostedRun r0 = RunHosted<elsc::VolanoWorkload>(mc, chat, nullptr);
    const HostedRun r1 = RunHosted<elsc::VolanoWorkload>(mc, chat, &spans);
    replica_ref_s += r0.run_s;
    replica_traced_s += r1.run_s;
    replica_events += r1.stats.events.fired;
    if (error.empty() && (!r0.error.empty() || !r1.error.empty())) {
      error = "federation node replica: " + (r0.error.empty() ? r1.error : r0.error);
    }
    if (error.empty() && r0.digest != r1.digest) {
      error = StrFormat("tracing is not inert on federation node replica %d; %s", i,
                        Repro(a).c_str());
    }
  }
  SchedMetrics(spans, replica_traced_s, replica_events, &m, &detail);
  StatsMetrics(run.stats, run.peak_live_tasks, run.peak_task_arena_bytes, &m);
  m.Num("sim.ns_per_event", Ratio(ref.run_s * 1e9, static_cast<double>(run.stats.events.fired)));

  ProbeSizes sizes;
  sizes.heap_depth = run.stats.events.max_heap_depth;
  sizes.cancel_ratio = Ratio(static_cast<double>(run.stats.events.cancelled),
                             static_cast<double>(run.stats.events.scheduled));
  sizes.deep_depth = WebConfig().accept_queue_capacity - 1;
  for (int node = 0; node < c.nodes(); ++node) {
    for (int member = 0; member < c.chat.users_per_room; ++member) {
      for (const char* kind : {"c2s", "s2c", "outq", "ack"}) {
        sizes.socket_names.push_back(StrFormat("r0.u%d.%s", member, kind));
      }
    }
    sizes.socket_names.push_back("server.accept");
    sizes.socket_names.push_back(StrFormat("node%d.fabric.in", node));
  }
  sizes.connections = run.connections;
  sizes.bytes_per_connection = bytes_per_connection;
  ProbeMetrics(sizes, a.seed, &m);
  m.Num("workloads.sim_throughput", run.throughput);
  m.Num("trace.overhead_pct", 100.0 * (Ratio(replica_traced_s, replica_ref_s) - 1.0));

  const double msgs_per_window = Ratio(static_cast<double>(run.fabric.emitted),
                                       static_cast<double>(run.fabric.exchanges));
  detail.Num("shards", shards).Num("untraced_run_s", ref.run_s).Num("one_shard_run_s", one.run_s);
  detail.Num("bytes_per_connection", bytes_per_connection);
  detail.Str("digest", StrFormat("%016llx", static_cast<unsigned long long>(run.digest)));
  detail.Num("sched.replica_nodes", replicas);
  detail.Num("fabric.ns_per_msg",
             ProbeFabricNsPerMsg(c.nodes(), static_cast<uint64_t>(msgs_per_window + 0.5),
                                 c.window, kProbeSeconds));
  detail.Num("fabric.msgs", static_cast<double>(run.fabric.emitted));
  detail.Num("fabric.msgs_per_window", msgs_per_window);
  detail.Num("fabric.max_window_backlog", static_cast<double>(run.fabric.max_window_backlog));
  detail.Num("scale.ms_per_window", Ratio(ref.run_s * 1e3, static_cast<double>(run.windows)));
  detail.Num("scale.shard_speedup", Ratio(one.run_s, ref.run_s));
  detail.Num("scale.arena_bytes_per_task", Ratio(static_cast<double>(run.peak_task_arena_bytes),
                                                 static_cast<double>(run.peak_live_tasks)));
  detail.Num("scale.windows", static_cast<double>(run.windows));
  detail.Num("scale.peak_live_tasks", static_cast<double>(run.peak_live_tasks));
  detail.Num("workloads.volano_sim_throughput", run.throughput);

  JsonObject out;
  out.Raw("ok", error.empty() ? "true" : "false").Str("error", error);
  out.Raw("metrics", m.Render()).Raw("detail", detail.Render());
  return out.Render();
}

std::string HostMode() {
  JsonObject out;
  out.Num("host_cpus", HostCpus()).Num("shards", FederationShards());
  // A fixed event-queue churn, timed on this host now. Host speed drifts by
  // tens of percent over minutes on shared machines; this tells such a phase
  // apart from a change in the program when two results are compared.
  out.Num("host_speed_probe_ns", ProbeEventQueueNsPerOp(1024, 0.02, 1, kProbeSeconds));
  out.Str("compiler", PERFBENCH_COMPILER).Str("cxx_flags", PERFBENCH_CXX_FLAGS);
  return out.Render();
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--seed" && has_value) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--mode" && has_value) {
      a->mode = argv[++i];
    } else if (arg == "--setup-samples" && has_value) {
      a->setup_samples = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--scratch" && has_value) {
      a->scratch = argv[++i];
    } else if (a->workload.empty() && arg.rfind("--", 0) != 0) {
      a->workload = arg;
    } else {
      return false;
    }
  }
  const bool known = a->workload == "volano_4p_linux" ||
                     a->workload == "federation_20k_elsc" ||
                     a->workload == "webserver_overload_o1";
  return known && (a->mode == "run" || a->mode == "trace");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::string(argv[1]) == "--host") {
    std::printf("%s\n", HostMode().c_str());
    return 0;
  }
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench <volano_4p_linux|federation_20k_elsc|webserver_overload_o1> "
                 "[--seed N] [--mode run|trace] [--setup-samples K] [--scratch DIR]\n"
                 "       perfbench --host\n");
    return 2;
  }
  std::string line;
  if (a.mode == "run") {
    line = RunMode(a);
  } else if (a.workload == "federation_20k_elsc") {
    line = TraceFederation(a);
  } else if (a.workload == "volano_4p_linux") {
    line = TraceHosted<elsc::VolanoWorkload>(a, VolanoMachine(a.seed), VolanoChat());
  } else {
    line = TraceHosted<elsc::WebserverWorkload>(a, WebMachine(a.seed), WebConfig());
  }
  std::printf("%s\n", line.c_str());
  return 0;
}
