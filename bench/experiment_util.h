// Shared helpers for the paper-reproduction benchmark binaries.
//
// Each bench binary regenerates one table or figure from the paper's
// evaluation (§6). They all run VolanoMark/kcompile/webserver simulations
// through the public API and print the same rows/series the paper reports,
// alongside the paper's published values where available so the shapes can
// be compared directly.
//
// Cells are independent simulations, so every bench fans them out through
// the parallel harness (src/harness/run_matrix.h). ELSC_BENCH_JOBS controls
// the fan-out (default: all host cores; 1 reproduces the historical serial
// order), and ELSC_BENCH_REPLICATES > 1 makes the throughput benches report
// mean ± stddev over independently seeded replicates.

#ifndef BENCH_EXPERIMENT_UTIL_H_
#define BENCH_EXPERIMENT_UTIL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/api/scale.h"
#include "src/api/simulation.h"
#include "src/base/fnv.h"
#include "src/base/knob.h"
#include "src/base/string_util.h"
#include "src/harness/run_matrix.h"
#include "src/harness/supervisor.h"
#include "src/stats/summary.h"
#include "src/stats/table.h"

namespace elsc {

// The paper's four kernel configurations, in presentation order.
inline std::vector<KernelConfig> PaperConfigs() {
  return {KernelConfig::kUp, KernelConfig::kSmp1, KernelConfig::kSmp2, KernelConfig::kSmp4};
}

// The paper's room counts for the VolanoMark sweeps.
inline std::vector<int> PaperRoomCounts() { return {5, 10, 15, 20}; }

// The two schedulers compared throughout the evaluation; the paper labels
// the stock scheduler "reg".
inline std::vector<SchedulerKind> PaperSchedulers() {
  return {SchedulerKind::kLinux, SchedulerKind::kElsc};
}

inline const char* PaperLabel(SchedulerKind kind) {
  return kind == SchedulerKind::kLinux ? "reg" : SchedulerKindName(kind);
}

// One VolanoMark cell of an experiment matrix.
struct VolanoCellSpec {
  KernelConfig kernel = KernelConfig::kUp;
  SchedulerKind scheduler = SchedulerKind::kLinux;
  int rooms = 10;
  uint64_t seed = 1;
};

// Stable identity of a cell for seed derivation (independent of its position
// in any particular bench's matrix).
uint64_t VolanoCellKey(const VolanoCellSpec& spec);

// Seed for replicate `replicate` of a cell. Replicate 0 uses the cell's own
// seed (reproducing single-run results exactly); later replicates use
// DeriveSeed(seed, cell_key, replicate).
uint64_t ReplicateSeed(const VolanoCellSpec& spec, int replicate);

// ELSC_BENCH_REPLICATES, an integer >= 1; 1 when unset.
int BenchReplicates();

// Runs one VolanoMark cell (config x scheduler x rooms) to completion.
VolanoRun RunVolanoCell(KernelConfig kernel, SchedulerKind scheduler, int rooms,
                        uint64_t seed = 1);

// Runs every cell through the parallel harness; results in spec order.
// jobs = 0 uses BenchJobs().
//
// Cells run under the run supervisor (src/harness/supervisor.h): watchdog,
// retry/quarantine, and — because VolanoRun has an exact round-trip codec —
// journaled checkpoint/resume when ELSC_RUN_JOURNAL is set. A quarantined
// cell yields a default VolanoRun (result.completed == false); outcomes feed
// the process-wide supervision accumulator surfaced by BenchExit().
std::vector<VolanoRun> RunVolanoCells(const std::vector<VolanoCellSpec>& cells, int jobs = 0);

// A cell run BenchReplicates() times with derived seeds.
struct VolanoCellSummary {
  VolanoRun first;      // Replicate 0 (the cell's own seed) — stats columns.
  Summary throughput;   // Over all replicates.
  bool completed = true;  // All replicates completed.
};

// Runs cells x BenchReplicates() through the harness; summaries in spec order.
std::vector<VolanoCellSummary> RunVolanoCellSummaries(const std::vector<VolanoCellSpec>& cells);

// Formatting helpers for table cells.
std::string FmtF(double value, int decimals = 1);
std::string FmtI(uint64_t value);
// "870" for a single replicate, "870 ±12" for several.
std::string FmtMeanSd(const Summary& summary, int decimals = 0);

// Prints the standard bench header (experiment id + workload summary),
// including the harness job/replicate counts when they differ from 1.
void PrintBenchHeader(const std::string& experiment, const std::string& description);

// If the ELSC_BENCH_CSV_DIR environment variable is set, writes `table` to
// <dir>/<name>.csv and prints the path; otherwise does nothing.
void MaybeExportCsv(const std::string& name, const TextTable& table);

// Host wall-clock seconds on the steady clock, for timing blocks.
double NowSec();

// Writes a bench's JSON file atomically (src/base/atomic_file.h); on failure
// prints why and returns false.
bool WriteBenchJson(const char* path, const std::string& json);

// Runs one federation cell on `shards` threads and fills in its wall time
// and per-wall-second rates (RenderScaleJson's timing block).
ScaleCell RunTimedScaleCell(const ScaleConfig& config, int shards);

// Readers of the two label sets defined above src/base (src/base/knob.h
// reads everything else); a bad label exits 2 through BadKnob naming `name`.
//   Schedulers  comma-separated scheduler names (ParseSchedulerKind);
//   ParseKernel a kernel label, UP|1P|2P|4P in any case (ParseKernelConfig);
//   KernelEnv   ParseKernel on knob `name`, or on `fallback` when unset.
std::vector<SchedulerKind> Schedulers(const char* name, const std::string& fallback);
KernelConfig ParseKernel(const std::string& name, const std::string& label);
KernelConfig KernelEnv(const char* name, const char* fallback);

// ---------------------------------------------------------------------------
// Supervision plumbing shared by every bench main.
// ---------------------------------------------------------------------------

// Process-wide accumulator over every supervised matrix this binary ran;
// BenchExit() renders it and decides the exit status.
SupervisionStats& GlobalSupervisionStats();
void AccumulateSupervision(const SupervisionStats& stats);

// Stable identity of a volano replicate matrix (hash of cell keys, seeds,
// and the replicate count) — binds the resume journal to the experiment.
uint64_t VolanoMatrixId(const std::vector<VolanoCellSpec>& cells, int replicates);

// Exact round-trip codec (EncodeVolanoRun/DecodeVolanoRun) enabling
// journaled resume for volano matrices.
CellCodec<VolanoRun> VolanoRunCodec();

// Supervisor options for a bench matrix: environment knobs plus a repro line
// naming the rerun command. `describe_cell` (optional) renders cell identity
// (kernel/scheduler/rooms/replicate/seed) into the quarantine line.
SupervisorOptions MakeBenchSupervisorOptions(
    uint64_t matrix_id, std::function<std::string(size_t)> describe_cell);

// Supervised drop-in for RunMatrix in bench mains whose cell results have no
// round-trip codec (kcompile, webserver, ablations...): watchdog + retry +
// quarantine, but no journal. `what` names the matrix in quarantine lines.
// Failed cells yield default-constructed results.
template <typename Fn>
auto RunBenchMatrix(const std::string& what, size_t cells, Fn&& run_cell,
                    int jobs = 0) -> std::vector<std::decay_t<decltype(run_cell(size_t{0}))>> {
  SupervisorOptions options = MakeBenchSupervisorOptions(
      Fnv1a64(what),
      [what](size_t i) { return what + StrFormat(" cell=%zu", i); });
  auto run = RunSupervised(options, cells, std::forward<Fn>(run_cell), {}, jobs);
  AccumulateSupervision(run.stats);
  return std::move(run.results);
}

// Standard bench epilogue: prints the supervision report when any supervised
// matrix ran, then returns `code` — escalated to nonzero when any cell was
// quarantined or skipped, so CI fails even though every other cell completed
// and every table was printed.
int BenchExit(int code);

}  // namespace elsc

#endif  // BENCH_EXPERIMENT_UTIL_H_
