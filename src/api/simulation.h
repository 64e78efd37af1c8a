// Public facade: one-call experiment runners.
//
// Most users of this library want "run workload W on an N-CPU machine under
// scheduler S and give me the numbers". These helpers assemble a fresh
// Machine, set up the workload, run it to completion (with a generous
// simulated-time safety deadline), and return the workload result together
// with the scheduler/machine statistics the paper reports.

#ifndef SRC_API_SIMULATION_H_
#define SRC_API_SIMULATION_H_

#include <string>

#include "src/base/token_codec.h"
#include "src/faults/auditor.h"
#include "src/faults/fault_plan.h"
#include "src/sched/sched_stats.h"
#include "src/sim/event_queue.h"
#include "src/smp/machine.h"
#include "src/workloads/chaos_mix.h"
#include "src/workloads/kcompile.h"
#include "src/workloads/volano.h"
#include "src/workloads/webserver.h"

namespace elsc {

// The paper's four kernel configurations.
enum class KernelConfig {
  kUp,       // Uniprocessor kernel (no SMP semantics), 1 CPU.
  kSmp1,     // SMP kernel on 1 CPU.
  kSmp2,     // SMP kernel on 2 CPUs.
  kSmp4,     // SMP kernel on 4 CPUs.
};

const char* KernelConfigLabel(KernelConfig config);
// Looks up "UP" -> kUp etc., in any case; false for any other label.
bool ParseKernelConfig(const std::string& label, KernelConfig* config);
// The same lookup, aborting on an unknown label.
KernelConfig KernelConfigFromLabel(const std::string& label);
// Applies the kernel configuration to a MachineConfig (cpu count + smp flag).
MachineConfig MakeMachineConfig(KernelConfig config, SchedulerKind scheduler, uint64_t seed = 1);

// Optional chaos layer for any run: a fault-injection plan plus the
// invariant auditor/watchdog. Both default to off, so `RunVolano(mc, wc)`
// behaves exactly as before; pass `{FullChaosPlan(seed), StrictAudit()}` to
// run the same workload under hostile conditions with every invariant
// cross-checked.
struct ChaosOptions {
  FaultPlan faults;
  AuditConfig audit;
};

// Memory high-water marks of a run. They travel through EncodeRunStats, the
// /proc-style report, and the bench JSON "memory" blocks.
struct MemoryStats {
  uint64_t task_arena_bytes = 0;   // Slab bytes resident in the task arena.
  uint64_t task_arena_chunks = 0;  // Chunks ever carved (never returned).
  // Workload sockets alive at end of run. Today's workloads build their
  // sockets at Setup() and never destroy them, so this is also the peak.
  uint64_t peak_live_sockets = 0;
};

// Every MemoryStats counter, in codec order.
inline constexpr Counter<MemoryStats> kMemoryCounters[] = {
    ELSC_COUNTER(MemoryStats, task_arena_bytes), ELSC_COUNTER(MemoryStats, task_arena_chunks),
    ELSC_COUNTER(MemoryStats, peak_live_sockets),
};

struct RunStats {
  SchedStats sched;
  MachineStats machine;
  // Event hot-path counters: allocations and heap depth (see EventQueueStats).
  EventQueueStats events;
  // Chaos layer (all zero when ChaosOptions were defaulted).
  FaultStats faults;
  AuditStats audit;
  // Memory high-water marks (arena footprint, task/socket peaks).
  MemoryStats memory;
  // Set when the run was stopped by the watchdog or unwound by a recoverable
  // invariant violation; `failure` carries the structured diagnosis.
  bool failed = false;
  std::string failure;
  double elapsed_sec = 0.0;
};

// Snapshot of a machine's counters: sched, machine, events, the task-arena
// half of the memory block, and elapsed_sec. The chaos-layer, socket and
// failure fields stay at their defaults for the caller to fill.
RunStats CollectStats(const Machine& machine);

// Folds `from` into `into`: counters sum, max_heap_depth and elapsed_sec
// take the max, failed ORs (the first non-empty failure string wins). Peaks
// (peak_live_tasks, peak_live_sockets, arena bytes) also sum — merged stats
// describe machines that coexisted (one sharded scenario's nodes), so the
// sum is the total footprint; a true concurrent-peak sample is the sharded
// runner's job (see src/api/scale.h). This is the streaming-aggregation
// primitive: fold results as they complete instead of retaining them.
void MergeRunStats(RunStats* into, const RunStats& from);

// The two golden strings every determinism test and baseline pins.
// RunStatsDigest is what the simulated kernel did: every sched, machine,
// faults and audit counter, the failure verdict and elapsed_sec (hex-float,
// so no precision is lost); a host-time change never moves it.
// EngineDigest ("events:<6 counters>") is how the engine computed it, the
// event-queue counters; an engine change may move it, and only it. Neither
// covers the memory counters (host layout).
std::string RunStatsDigest(const RunStats& stats);
std::string EngineDigest(const RunStats& stats);

// Exact round-trip encodings for the run-supervisor's journal (checkpoint/
// resume, see src/harness/supervisor.h): every counter as a decimal token,
// every double as a %a hex-float, and the free-form failure string last so
// it may contain spaces. Decode returns false on malformed input (the
// supervisor then re-runs the cell) and guarantees
// Encode(Decode(Encode(x))) == Encode(x).
std::string EncodeRunStats(const RunStats& stats);
bool DecodeRunStats(const std::string& payload, RunStats* stats);

struct VolanoRun {
  VolanoResult result;
  RunStats stats;
};

std::string EncodeVolanoRun(const VolanoRun& run);
bool DecodeVolanoRun(const std::string& payload, VolanoRun* run);

struct KcompileRun {
  KcompileResult result;
  RunStats stats;
};

struct WebserverRun {
  WebserverResult result;
  RunStats stats;
};

struct ChaosMixRun {
  ChaosMixResult result;
  RunStats stats;
};

// Runs VolanoMark to completion. `deadline` bounds simulated time (default
// one simulated hour); the run aborts the process if the workload deadlocks
// past it with completed == false in the result. `chaos` (default: off)
// layers fault injection and the scheduler auditor onto the run.
VolanoRun RunVolano(const MachineConfig& machine_config, const VolanoConfig& workload_config,
                    Cycles deadline = SecToCycles(3600), const ChaosOptions& chaos = {});

KcompileRun RunKcompile(const MachineConfig& machine_config, const KcompileConfig& workload_config,
                        Cycles deadline = SecToCycles(7200), const ChaosOptions& chaos = {});

WebserverRun RunWebserver(const MachineConfig& machine_config,
                          const WebserverConfig& workload_config,
                          Cycles deadline = SecToCycles(3600), const ChaosOptions& chaos = {});

// Runs the chaos-mix workload (the fault-injection substrate) to drain.
ChaosMixRun RunChaosMix(const MachineConfig& machine_config,
                        const ChaosMixConfig& workload_config,
                        Cycles deadline = SecToCycles(600), const ChaosOptions& chaos = {});

}  // namespace elsc

#endif  // SRC_API_SIMULATION_H_
