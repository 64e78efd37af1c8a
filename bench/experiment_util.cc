#include "bench/experiment_util.h"

#include <cerrno>  // program_invocation_name (glibc) for repro commands.
#include <chrono>
#include <cstdio>
#include <mutex>

#include "src/base/atomic_file.h"
#include "src/base/string_util.h"
#include "src/harness/shutdown.h"
#include "src/sched/factory.h"
#include "src/stats/proc_report.h"

namespace elsc {

namespace {

// The rerun command printed in quarantine repro lines.
std::string BenchCommand() {
#ifdef __GLIBC__
  return program_invocation_name != nullptr ? program_invocation_name
                                            : "<bench binary>";
#else
  return "<bench binary>";
#endif
}

}  // namespace

SupervisionStats& GlobalSupervisionStats() {
  static SupervisionStats stats;
  return stats;
}

void AccumulateSupervision(const SupervisionStats& stats) {
  AddCounters(&GlobalSupervisionStats(), stats, kSupervisionCounters);
}

uint64_t VolanoMatrixId(const std::vector<VolanoCellSpec>& cells, int replicates) {
  std::string identity = StrFormat("volano r%d", replicates);
  for (const VolanoCellSpec& spec : cells) {
    identity += StrFormat(" %llx:%llx",
                          static_cast<unsigned long long>(VolanoCellKey(spec)),
                          static_cast<unsigned long long>(spec.seed));
  }
  return Fnv1a64(identity);
}

CellCodec<VolanoRun> VolanoRunCodec() {
  CellCodec<VolanoRun> codec;
  codec.encode = [](const VolanoRun& run) { return EncodeVolanoRun(run); };
  codec.decode = [](const std::string& payload, VolanoRun* run) {
    return DecodeVolanoRun(payload, run);
  };
  return codec;
}

SupervisorOptions MakeBenchSupervisorOptions(
    uint64_t matrix_id, std::function<std::string(size_t)> describe_cell) {
  SupervisorOptions options = SupervisorOptions::FromEnv();
  options.matrix_id = matrix_id;
  options.repro = [describe = std::move(describe_cell)](size_t i) {
    const std::string cell = describe ? describe(i) : StrFormat("cell=%zu", i);
    return StrFormat("ELSC_BENCH_JOBS=1 %s  # %s", BenchCommand().c_str(),
                     cell.c_str());
  };
  return options;
}

int BenchExit(int code) {
  const SupervisionStats& stats = GlobalSupervisionStats();
  if (stats.cells > 0) {
    std::printf("%s", RenderSupervisionReport(stats).c_str());
  }
  if (ShutdownRequested()) {
    // SIGTERM/SIGINT: durable state (journal, checkpoint segments) was
    // flushed on the way out. EX_TEMPFAIL tells the caller a rerun resumes.
    std::fprintf(stderr,
                 "elsc-bench: interrupted by SIGTERM/SIGINT — rerun to resume "
                 "(exit %d)\n",
                 kShutdownExitCode);
    return kShutdownExitCode;
  }
  if (!stats.AllOk()) {
    std::fprintf(stderr,
                 "elsc-supervisor: FAILED — %llu quarantined, %llu skipped of "
                 "%llu cells (see repro lines above)\n",
                 static_cast<unsigned long long>(stats.quarantined),
                 static_cast<unsigned long long>(stats.skipped),
                 static_cast<unsigned long long>(stats.cells));
    return code != 0 ? code : 1;
  }
  return code;
}

uint64_t VolanoCellKey(const VolanoCellSpec& spec) {
  return (static_cast<uint64_t>(spec.kernel) << 48) |
         (static_cast<uint64_t>(spec.scheduler) << 40) |
         static_cast<uint64_t>(static_cast<uint32_t>(spec.rooms));
}

uint64_t ReplicateSeed(const VolanoCellSpec& spec, int replicate) {
  if (replicate == 0) {
    return spec.seed;
  }
  return DeriveSeed(spec.seed, VolanoCellKey(spec), static_cast<uint64_t>(replicate));
}

int BenchReplicates() { return IntEnv("ELSC_BENCH_REPLICATES", 1); }

VolanoRun RunVolanoCell(KernelConfig kernel, SchedulerKind scheduler, int rooms, uint64_t seed) {
  VolanoConfig volano;
  volano.rooms = rooms;
  const MachineConfig machine = MakeMachineConfig(kernel, scheduler, seed);
  return RunVolano(machine, volano);
}

namespace {

// A volano matrix with `replicates` consecutive indices per spec: index i is
// replicate i % replicates of cells[i / replicates].
struct VolanoMatrix {
  const std::vector<VolanoCellSpec>& cells;
  int replicates = 1;

  size_t size() const { return cells.size() * static_cast<size_t>(replicates); }
  const VolanoCellSpec& spec(size_t i) const {
    return cells[i / static_cast<size_t>(replicates)];
  }
  int replicate(size_t i) const { return static_cast<int>(i % static_cast<size_t>(replicates)); }

  // Supervisor options whose repro lines name the cell.
  SupervisorOptions Options() const {
    return MakeBenchSupervisorOptions(VolanoMatrixId(cells, replicates), [this](size_t i) {
      const VolanoCellSpec& s = spec(i);
      return StrFormat("volano kernel=%s sched=%s rooms=%d replicate=%d "
                       "cell_key=0x%llx seed=0x%llx",
                       KernelConfigLabel(s.kernel), PaperLabel(s.scheduler), s.rooms,
                       replicate(i), static_cast<unsigned long long>(VolanoCellKey(s)),
                       static_cast<unsigned long long>(ReplicateSeed(s, replicate(i))));
    });
  }

  VolanoRun Run(size_t i) const {
    const VolanoCellSpec& s = spec(i);
    return RunVolanoCell(s.kernel, s.scheduler, s.rooms, ReplicateSeed(s, replicate(i)));
  }
};

}  // namespace

std::vector<VolanoRun> RunVolanoCells(const std::vector<VolanoCellSpec>& cells, int jobs) {
  const VolanoMatrix matrix{cells, 1};
  SupervisedRun<VolanoRun> run = RunSupervised(
      matrix.Options(), matrix.size(), [&matrix](size_t i) { return matrix.Run(i); },
      VolanoRunCodec(), jobs);
  AccumulateSupervision(run.stats);
  return std::move(run.results);
}

std::vector<VolanoCellSummary> RunVolanoCellSummaries(const std::vector<VolanoCellSpec>& cells) {
  const VolanoMatrix matrix{cells, BenchReplicates()};
  const int replicates = matrix.replicates;
  const size_t total = matrix.size();
  // Streaming fold: a completed replicate contributes one throughput double
  // and one completion bit, and only replicate 0's full run (the stats
  // columns) is retained per cell — every other VolanoRun (histograms,
  // RunStats, failure strings) is destroyed the moment it lands, so memory
  // is O(cells), not O(cells x replicates). Slots a quarantined cell never
  // fills keep {0.0, false}, exactly what the default-constructed runs of
  // the materializing version folded.
  std::vector<VolanoCellSummary> summaries(cells.size());
  std::vector<double> throughputs(total, 0.0);
  std::vector<uint8_t> completed(total, 0);
  std::mutex fold_mutex;
  auto consume = [&](size_t i, VolanoRun&& run) {
    std::lock_guard<std::mutex> lock(fold_mutex);
    throughputs[i] = run.result.throughput;
    completed[i] = run.result.completed ? 1 : 0;
    if (matrix.replicate(i) == 0) {
      summaries[i / static_cast<size_t>(replicates)].first = std::move(run);
    }
  };
  EncodedSupervisedRun run = RunSupervisedStream(
      matrix.Options(), total, [&matrix](size_t i) { return matrix.Run(i); }, consume,
      VolanoRunCodec(), 0);
  AccumulateSupervision(run.stats);
  // Summary::Add is order-sensitive in floating point: fold the buffered
  // scalars in replicate order so the output is bit-identical at any
  // ELSC_BENCH_JOBS, as before.
  for (size_t c = 0; c < cells.size(); ++c) {
    VolanoCellSummary& summary = summaries[c];
    for (int r = 0; r < replicates; ++r) {
      const size_t i = c * static_cast<size_t>(replicates) + static_cast<size_t>(r);
      summary.completed = summary.completed && completed[i] != 0;
      summary.throughput.Add(throughputs[i]);
    }
  }
  return summaries;
}

std::string FmtF(double value, int decimals) {
  return StrFormat("%.*f", decimals, value);
}

std::string FmtI(uint64_t value) { return WithThousandsSeparators(value); }

std::string FmtMeanSd(const Summary& summary, int decimals) {
  if (summary.count() <= 1) {
    return FmtF(summary.mean(), decimals);
  }
  return FmtF(summary.mean(), decimals) + " ±" + FmtF(summary.stddev(), decimals);
}

void MaybeExportCsv(const std::string& name, const TextTable& table) {
  const std::string dir = StringEnv("ELSC_BENCH_CSV_DIR");
  if (dir.empty()) {
    return;
  }
  const std::string path = dir + "/" + name + ".csv";
  if (table.WriteCsv(path)) {
    std::printf("(csv written to %s)\n", path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
  }
}

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool WriteBenchJson(const char* path, const std::string& json) {
  std::string error;
  if (!AtomicWriteFile(path, json, &error)) {
    std::fprintf(stderr, "cannot write %s: %s\n", path, error.c_str());
    return false;
  }
  return true;
}

ScaleCell RunTimedScaleCell(const ScaleConfig& config, int shards) {
  ScaleCell cell;
  cell.config = config;
  const double start = NowSec();
  cell.run = RunShardedVolano(config, shards);
  cell.wall_sec = NowSec() - start;
  if (cell.wall_sec > 0.0) {
    cell.tasks_per_wall_sec =
        static_cast<double>(cell.run.stats.machine.tasks_created) / cell.wall_sec;
    cell.events_per_wall_sec = static_cast<double>(cell.run.stats.events.fired) / cell.wall_sec;
  }
  return cell;
}

std::vector<SchedulerKind> Schedulers(const char* name, const std::string& fallback) {
  std::vector<SchedulerKind> kinds;
  for (const std::string& field : EnvFields(name, fallback)) {
    SchedulerKind kind = SchedulerKind::kLinux;
    if (!ParseSchedulerKind(field, &kind)) {
      BadKnob(name, field, "linux (reg, stock, current), elsc, heap, multiqueue (mq) or o1");
    }
    kinds.push_back(kind);
  }
  return kinds;
}

KernelConfig ParseKernel(const std::string& name, const std::string& label) {
  KernelConfig kernel = KernelConfig::kUp;
  if (!ParseKernelConfig(label, &kernel)) {
    BadKnob(name, label, "UP, 1P, 2P or 4P");
  }
  return kernel;
}

KernelConfig KernelEnv(const char* name, const char* fallback) {
  return ParseKernel(name, StringEnv(name, fallback));
}

void PrintBenchHeader(const std::string& experiment, const std::string& description) {
  // Every bench main prints this first: graceful SIGTERM/SIGINT handling is
  // armed process-wide here (idempotent), and the harness and supervisor
  // knobs are read here, so a malformed one exits 2 before anything runs.
  InstallGracefulShutdown();
  const int jobs = BenchJobs();
  const int replicates = BenchReplicates();
  SupervisorOptions::FromEnv();
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("%s\n", description.c_str());
  if (jobs != 1 || replicates != 1) {
    std::printf("(harness: %d job%s, %d replicate%s per cell)\n", jobs, jobs == 1 ? "" : "s",
                replicates, replicates == 1 ? "" : "s");
  }
  std::printf("================================================================\n");
}

}  // namespace elsc
