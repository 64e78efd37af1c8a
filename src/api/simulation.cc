#include "src/api/simulation.h"

#include <strings.h>

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "src/base/assert.h"
#include "src/base/string_util.h"
#include "src/base/token_codec.h"
#include "src/faults/fault_injector.h"

namespace elsc {

const char* KernelConfigLabel(KernelConfig config) {
  switch (config) {
    case KernelConfig::kUp:
      return "UP";
    case KernelConfig::kSmp1:
      return "1P";
    case KernelConfig::kSmp2:
      return "2P";
    case KernelConfig::kSmp4:
      return "4P";
  }
  return "?";
}

bool ParseKernelConfig(const std::string& label, KernelConfig* config) {
  for (const KernelConfig candidate :
       {KernelConfig::kUp, KernelConfig::kSmp1, KernelConfig::kSmp2, KernelConfig::kSmp4}) {
    if (strcasecmp(label.c_str(), KernelConfigLabel(candidate)) == 0) {
      *config = candidate;
      return true;
    }
  }
  return false;
}

KernelConfig KernelConfigFromLabel(const std::string& label) {
  KernelConfig config = KernelConfig::kUp;
  ELSC_CHECK_MSG(ParseKernelConfig(label, &config),
                 "unknown kernel config label (expected UP|1P|2P|4P)");
  return config;
}

MachineConfig MakeMachineConfig(KernelConfig config, SchedulerKind scheduler, uint64_t seed) {
  MachineConfig mc;
  mc.scheduler = scheduler;
  mc.seed = seed;
  switch (config) {
    case KernelConfig::kUp:
      mc.num_cpus = 1;
      mc.smp = false;
      break;
    case KernelConfig::kSmp1:
      mc.num_cpus = 1;
      mc.smp = true;
      break;
    case KernelConfig::kSmp2:
      mc.num_cpus = 2;
      mc.smp = true;
      break;
    case KernelConfig::kSmp4:
      mc.num_cpus = 4;
      mc.smp = true;
      break;
  }
  return mc;
}

RunStats CollectStats(const Machine& machine) {
  RunStats stats;
  stats.sched = machine.scheduler().stats();
  stats.machine = machine.stats();
  stats.events = machine.engine().queue_stats();
  stats.memory.task_arena_bytes = machine.task_arena_bytes();
  stats.memory.task_arena_chunks = machine.task_arena_stats().chunks;
  stats.elapsed_sec = CyclesToSec(machine.Now());
  return stats;
}

namespace {

// Shared run loop for every facade entry point: arms the chaos layer (a
// no-op when `chaos` is defaulted), traps recoverable invariant violations
// and uncaught workload exceptions so a corrupted run degrades into
// RunStats::failed instead of aborting, and folds the injector/auditor
// verdicts into the stats. A CellDeadlineExceeded from the supervisor's
// watchdog is deliberately NOT an std::exception and punches through to the
// supervisor's retry loop.
template <typename Workload>
RunStats RunWithChaos(Machine& machine, Workload& workload, Cycles deadline,
                      const ChaosOptions& chaos) {
  FaultInjector injector(machine, chaos.faults);
  SchedulerAuditor auditor(machine, chaos.audit);
  // Workloads that expose connection-lifecycle targets (their network-facing
  // sockets) hand them to the injector so a plan's conn-chaos fields can
  // act. Detected structurally: workloads without the hook (kcompile,
  // chaos_mix) are simply never victimized.
  if constexpr (requires { workload.LifecycleTargets(); }) {
    if (chaos.faults.ConnChaosEnabled()) {
      injector.AttachLifecycleTargets(workload.LifecycleTargets());
    }
  }
  injector.Arm();
  auditor.Arm();
  machine.Start();
  RunStats stats;
  {
    ViolationTrap trap;
    std::string exception_failure;
    try {
      machine.RunUntil([&workload] { return workload.Done(); }, deadline);
    } catch (const InvariantViolation&) {
      // Recorded in the trap; fall through and report the partial run.
    } catch (const std::exception& e) {
      exception_failure = StrFormat("uncaught exception: %s", e.what());
    }
    stats = CollectStats(machine);
    // Workloads that can count their sockets feed the memory high-water
    // block; the rest (kcompile, chaos_mix — no sockets) report zero.
    if constexpr (requires { workload.SocketCount(); }) {
      stats.memory.peak_live_sockets = workload.SocketCount();
    }
    if (!exception_failure.empty()) {
      stats.failed = true;
      stats.failure = std::move(exception_failure);
    }
    if (trap.triggered()) {
      const ViolationInfo& v = trap.info();
      stats.failed = true;
      stats.failure = StrFormat("invariant violation: %s at %s:%d%s%s", v.expr,
                                v.file, v.line, v.msg != nullptr ? " — " : "",
                                v.msg != nullptr ? v.msg : "");
    }
  }
  stats.faults = injector.stats();
  stats.audit = auditor.stats();
  if (auditor.failed()) {
    stats.failed = true;
    if (stats.failure.empty()) {
      stats.failure = auditor.diagnosis();
    }
  }
  return stats;
}

// Appends "name:c0,c1,..." over every counter of `record`, after a '|'
// unless `out` is empty.
template <typename T, size_t N>
void AppendDigestSection(std::string* out, const char* name, const T& record,
                         const Counter<T> (&table)[N]) {
  static_assert(kTableCoversRecord<T, N>, "a counter is missing from its table");
  if (!out->empty()) {
    *out += '|';
  }
  *out += name;
  for (size_t i = 0; i < N; ++i) {
    *out += i == 0 ? ':' : ',';
    *out += std::to_string(record.*table[i].field);
  }
}

// The body of every Run<Workload> facade (RunVolano, RunKcompile,
// RunWebserver, RunChaosMix).
template <typename Workload, typename Run, typename Config>
Run RunWorkload(const MachineConfig& machine_config, const Config& workload_config,
                Cycles deadline, const ChaosOptions& chaos) {
  Machine machine(machine_config);
  Workload workload(machine, workload_config);
  workload.Setup();
  Run run;
  run.stats = RunWithChaos(machine, workload, deadline, chaos);
  run.result = workload.Result();
  return run;
}

}  // namespace

std::string RunStatsDigest(const RunStats& stats) {
  std::string out;
  AppendDigestSection(&out, "sched", stats.sched, kSchedCounters);
  AppendDigestSection(&out, "machine", stats.machine, kMachineCounters);
  AppendDigestSection(&out, "faults", stats.faults, kFaultCounters);
  AppendDigestSection(&out, "audit", stats.audit, kAuditCounters);
  // The failure string is a human-readable diagnosis (not canonical); only
  // the verdict bit participates in the digest.
  out += StrFormat("|failed:%d|elapsed:%a", stats.failed ? 1 : 0, stats.elapsed_sec);
  return out;
}

std::string EngineDigest(const RunStats& stats) {
  std::string out;
  AppendDigestSection(&out, "events", stats.events, kEventQueueCounters);
  return out;
}

std::string EncodeRunStats(const RunStats& stats) {
  std::string out;
  AppendCounters(&out, stats.sched, kSchedCounters);
  AppendCounters(&out, stats.machine, kMachineCounters);
  AppendCounters(&out, stats.events, kEventQueueCounters);
  AppendCounters(&out, stats.faults, kFaultCounters);
  AppendCounters(&out, stats.audit, kAuditCounters);
  AppendCounters(&out, stats.memory, kMemoryCounters);
  AppendF64(&out, stats.elapsed_sec);
  AppendU64(&out, stats.failed ? 1 : 0);
  out += stats.failure;  // Last: may contain spaces (but never newlines).
  return out;
}

bool DecodeRunStats(const std::string& payload, RunStats* stats) {
  RunStats out;
  TokenReader r(payload);
  const bool ok = ReadCounters(&r, &out.sched, kSchedCounters) &&
                  ReadCounters(&r, &out.machine, kMachineCounters) &&
                  ReadCounters(&r, &out.events, kEventQueueCounters) &&
                  ReadCounters(&r, &out.faults, kFaultCounters) &&
                  ReadCounters(&r, &out.audit, kAuditCounters) &&
                  ReadCounters(&r, &out.memory, kMemoryCounters) &&
                  r.F64(&out.elapsed_sec) && r.Bool(&out.failed);
  if (!ok) {
    return false;
  }
  out.failure = r.Rest();
  *stats = std::move(out);
  return true;
}

void MergeRunStats(RunStats* into, const RunStats& from) {
  // Every counter sums except the event heap's high-water mark.
  const uint64_t max_heap_depth =
      std::max(into->events.max_heap_depth, from.events.max_heap_depth);
  AddCounters(&into->sched, from.sched, kSchedCounters);
  AddCounters(&into->machine, from.machine, kMachineCounters);
  AddCounters(&into->events, from.events, kEventQueueCounters);
  AddCounters(&into->faults, from.faults, kFaultCounters);
  AddCounters(&into->audit, from.audit, kAuditCounters);
  AddCounters(&into->memory, from.memory, kMemoryCounters);
  into->events.max_heap_depth = max_heap_depth;
  if (from.failed && !into->failed) {
    into->failed = true;
    into->failure = from.failure;
  }
  into->elapsed_sec = std::max(into->elapsed_sec, from.elapsed_sec);
}

std::string EncodeVolanoRun(const VolanoRun& run) {
  // VolanoResult first so the RunStats trailer (free-form failure string)
  // stays at the end of the payload.
  std::string out;
  AppendU64(&out, run.result.completed ? 1 : 0);
  AppendF64(&out, run.result.elapsed_sec);
  AppendU64(&out, run.result.messages_sent);
  AppendU64(&out, run.result.messages_delivered);
  AppendF64(&out, run.result.throughput);
  AppendU64(&out, run.result.resets_seen);
  AppendU64(&out, run.result.retries);
  AppendU64(&out, run.result.reconnects);
  AppendU64(&out, run.result.abandons);
  AppendU64(&out, run.result.messages_lost);
  out += EncodeRunStats(run.stats);
  return out;
}

bool DecodeVolanoRun(const std::string& payload, VolanoRun* run) {
  VolanoRun out;
  TokenReader r(payload);
  if (!r.Bool(&out.result.completed) || !r.F64(&out.result.elapsed_sec) ||
      !r.U64(&out.result.messages_sent) || !r.U64(&out.result.messages_delivered) ||
      !r.F64(&out.result.throughput) || !r.U64(&out.result.resets_seen) ||
      !r.U64(&out.result.retries) || !r.U64(&out.result.reconnects) ||
      !r.U64(&out.result.abandons) || !r.U64(&out.result.messages_lost)) {
    return false;
  }
  if (!DecodeRunStats(r.Rest(), &out.stats)) {
    return false;
  }
  *run = std::move(out);
  return true;
}

VolanoRun RunVolano(const MachineConfig& machine_config, const VolanoConfig& workload_config,
                    Cycles deadline, const ChaosOptions& chaos) {
  return RunWorkload<VolanoWorkload, VolanoRun>(machine_config, workload_config, deadline, chaos);
}

KcompileRun RunKcompile(const MachineConfig& machine_config,
                        const KcompileConfig& workload_config, Cycles deadline,
                        const ChaosOptions& chaos) {
  return RunWorkload<KcompileWorkload, KcompileRun>(machine_config, workload_config, deadline,
                                                    chaos);
}

WebserverRun RunWebserver(const MachineConfig& machine_config,
                          const WebserverConfig& workload_config, Cycles deadline,
                          const ChaosOptions& chaos) {
  return RunWorkload<WebserverWorkload, WebserverRun>(machine_config, workload_config, deadline,
                                                      chaos);
}

ChaosMixRun RunChaosMix(const MachineConfig& machine_config,
                        const ChaosMixConfig& workload_config, Cycles deadline,
                        const ChaosOptions& chaos) {
  return RunWorkload<ChaosMixWorkload, ChaosMixRun>(machine_config, workload_config, deadline,
                                                    chaos);
}

}  // namespace elsc
