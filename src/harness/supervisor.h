// Supervised matrix execution: watchdogs, crash isolation, retry/quarantine,
// and journaled checkpoint/resume on top of RunMatrix/ParallelFor.
//
// RunMatrix (run_matrix.h) assumes every cell succeeds: one uncaught
// exception, trapped invariant violation, or wedged event loop kills the
// whole multi-minute fan-out with no artifact. RunSupervised wraps each cell
// in:
//
//   - a ViolationTrap, so ELSC_VERIFY failures anywhere in the cell (setup,
//     run, result extraction) unwind instead of aborting the process;
//   - a CellWatchdog deadline (ELSC_CELL_TIMEOUT_MS; 0/unset = disabled),
//     polled from the simulation's inner event loops;
//   - a retry loop: *transient* failures (deadline expiry, resource
//     exhaustion — see src/base/failure.h) are retried up to
//     ELSC_CELL_RETRIES times with bounded exponential backoff and an
//     escalating deadline budget; *deterministic* failures (exceptions,
//     invariant violations — cells are pure functions of their index and
//     seed, so these recur) are quarantined immediately with a one-line
//     repro on stderr (and in ELSC_QUARANTINE_FILE when set).
//
// Checkpoint/resume: when ELSC_RUN_JOURNAL is set and the caller supplies a
// CellCodec, every completed cell's encoded result is appended to an fsync'd
// journal (journal.h) named <ELSC_RUN_JOURNAL>.<matrix_id hex> — the suffix
// keeps the several matrices a single bench binary runs from colliding. A
// killed run, re-executed with the same environment, decodes the journaled
// cells instead of re-running them and produces bit-identical, index-ordered
// results; only codecs with exact round-trip encodings (hex floats, not %g)
// may be used.
//
// Determinism contract: supervision is observationally inert on clean runs —
// results are stored by index exactly as RunMatrix stores them, cells remain
// pure functions of their index, and no watchdog/journal is armed unless the
// corresponding environment variable asks for it. The golden-stats digests in
// tests/harness_test.cc hold under supervised execution.
//
// Fault injection for CI teeth (scripts/ci_supervised.sh):
// ELSC_SUPERVISE_INJECT=<kind>@<index>[:once] with kind one of
// crash|violate|timeout makes cell <index> fail artificially (every attempt,
// or only the first with ":once") so the quarantine/retry machinery can be
// exercised on demand. Every knob here goes through src/base/knob.h: a
// malformed value (a spec outside that grammar included) exits 2 when
// FromEnv reads it, before any cell runs.

#ifndef SRC_HARNESS_SUPERVISOR_H_
#define SRC_HARNESS_SUPERVISOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/failure.h"
#include "src/base/token_codec.h"

namespace elsc {

struct SupervisorOptions {
  // Wall-clock budget per cell attempt, seconds. <= 0 disables the watchdog.
  double cell_timeout_sec = 0.0;
  // Extra attempts allowed for transient failures (so max_retries + 1 total).
  int max_retries = 2;
  // Exponential backoff between transient retries: base * 2^attempt, capped.
  double backoff_base_sec = 0.01;
  double backoff_cap_sec = 1.0;
  // Each retry of a timed-out cell gets a larger budget (a slow host, not a
  // wedged cell, may just need more time).
  double timeout_growth = 2.0;
  // Journal base path ("" = no journal). The actual file is
  // <journal_path>.<matrix_id hex>.
  std::string journal_path;
  // Identifies this matrix (hash of its cell specs); binds the journal file.
  uint64_t matrix_id = 0;
  // One-line rerun command for quarantine reports, given the cell index.
  std::function<std::string(size_t)> repro;
  // Where quarantine lines are appended ("" = stderr only).
  std::string quarantine_path;
  // Artificial failure spec, "<kind>@<index>[:once]" (see header comment).
  std::string inject_spec;
  // Test hook: after this many journal appends, stop starting new cells
  // (simulates a mid-run kill for resume tests). 0 = never.
  size_t interrupt_after_journaled = 0;

  // Defaults above overridden from ELSC_CELL_TIMEOUT_MS, ELSC_CELL_RETRIES,
  // ELSC_RUN_JOURNAL, ELSC_QUARANTINE_FILE, ELSC_SUPERVISE_INJECT.
  static SupervisorOptions FromEnv();
};

enum class CellStatus {
  kOk,           // Completed (possibly after retries, possibly from journal).
  kQuarantined,  // Failed deterministically or exhausted retries.
  kSkipped,      // Never started: the run was interrupted first.
};

// What supervision observed for one cell.
struct CellOutcome {
  CellStatus status = CellStatus::kOk;
  FailureKind kind = FailureKind::kNone;  // Final failure kind (kNone if ok).
  int attempts = 0;                       // Executions of the cell body.
  bool resumed = false;                   // Result decoded from the journal.
  int timeouts = 0;                       // Deadline expiries across attempts.
  int violations = 0;                     // Trapped ELSC_VERIFY failures.
  int exceptions = 0;                     // Exceptions (incl. resource) thrown.
  std::string error;                      // Final failure message ("" if ok).
};

// Aggregate counters surfaced in bench JSON and the /proc-style report;
// AddCounters over kSupervisionCounters folds several matrices into one.
struct SupervisionStats {
  uint64_t cells = 0;
  uint64_t completed = 0;
  uint64_t quarantined = 0;
  uint64_t skipped = 0;
  uint64_t resumed = 0;   // Completed cells loaded from the journal.
  uint64_t retries = 0;   // Extra attempts beyond the first, all cells.
  uint64_t timeouts = 0;
  uint64_t violations = 0;
  uint64_t exceptions = 0;
  uint64_t interrupted = 0;  // Matrices the interrupt hook stopped early.

  bool AllOk() const { return quarantined == 0 && skipped == 0; }
};

inline constexpr Counter<SupervisionStats> kSupervisionCounters[] = {
    ELSC_COUNTER(SupervisionStats, cells), ELSC_COUNTER(SupervisionStats, completed),
    ELSC_COUNTER(SupervisionStats, quarantined), ELSC_COUNTER(SupervisionStats, skipped),
    ELSC_COUNTER(SupervisionStats, resumed), ELSC_COUNTER(SupervisionStats, retries),
    ELSC_COUNTER(SupervisionStats, timeouts), ELSC_COUNTER(SupervisionStats, violations),
    ELSC_COUNTER(SupervisionStats, exceptions), ELSC_COUNTER(SupervisionStats, interrupted),
};

// Derives per-cell outcomes into aggregate stats.
SupervisionStats SummarizeOutcomes(const std::vector<CellOutcome>& outcomes);

// Type-erased core. run_encoded(i) executes cell i and returns its journal
// payload ("" when journaling is unused); load_encoded(i, payload) restores
// cell i's result from a journal payload, returning false to force a re-run.
// Pass load_encoded = nullptr when no exact round-trip codec exists — the
// journal is then skipped (with a warning if one was requested).
struct EncodedSupervisedRun {
  std::vector<CellOutcome> outcomes;
  SupervisionStats stats;
};
EncodedSupervisedRun RunSupervisedEncoded(
    const SupervisorOptions& options, size_t cells,
    const std::function<std::string(size_t)>& run_encoded,
    const std::function<bool(size_t, const std::string&)>& load_encoded,
    int jobs = 0);

// Exact round-trip encoder/decoder for a cell result type; required for
// journaled checkpoint/resume (resumed cells must be bit-identical to
// re-run ones, so use hex-float formatting for doubles).
template <typename R>
struct CellCodec {
  std::function<std::string(const R&)> encode;
  std::function<bool(const std::string&, R*)> decode;
  bool valid() const { return encode != nullptr && decode != nullptr; }
};

template <typename R>
struct SupervisedRun {
  std::vector<R> results;  // Index-ordered; default-constructed for failed cells.
  std::vector<CellOutcome> outcomes;
  SupervisionStats stats;
  bool AllOk() const { return stats.AllOk(); }
};

// Streaming variant of RunSupervised: instead of materializing every result
// in an index-ordered vector, each completed cell is handed to
// `consume(index, R&&)` the moment it finishes and then destroyed — memory
// stays constant in the matrix size when the consumer folds rather than
// stores. Journal-resumed cells are decoded and routed through the same
// consumer. consume is invoked from worker threads (and, for resumed cells,
// the calling thread) — the caller synchronizes; quarantined/skipped cells
// are never consumed (check the outcomes). Fold floating-point aggregates in
// index order *after* the run if bit-stable results are required.
template <typename Fn, typename Consume,
          typename R = std::decay_t<std::invoke_result_t<Fn&, size_t>>>
EncodedSupervisedRun RunSupervisedStream(const SupervisorOptions& options,
                                         size_t cells, Fn&& run_cell,
                                         Consume&& consume,
                                         CellCodec<R> codec = {},
                                         int jobs = 0) {
  std::function<std::string(size_t)> run_encoded = [&](size_t i) {
    R result = run_cell(i);
    std::string payload = codec.encode ? codec.encode(result) : std::string();
    consume(i, std::move(result));
    return payload;
  };
  std::function<bool(size_t, const std::string&)> load_encoded;
  if (codec.valid()) {
    load_encoded = [&](size_t i, const std::string& payload) {
      R result{};
      if (!codec.decode(payload, &result)) {
        return false;
      }
      consume(i, std::move(result));
      return true;
    };
  }
  return RunSupervisedEncoded(options, cells, run_encoded, load_encoded, jobs);
}

// Supervised drop-in for RunMatrix: runs `cells` cells with watchdog, retry,
// quarantine, and (when a valid codec is supplied) journaled resume. Results
// are index-ordered; a failed cell leaves a default-constructed result and a
// non-kOk outcome. jobs = 0 means BenchJobs().
template <typename Fn,
          typename R = std::decay_t<std::invoke_result_t<Fn&, size_t>>>
SupervisedRun<R> RunSupervised(const SupervisorOptions& options, size_t cells,
                               Fn&& run_cell, CellCodec<R> codec = {},
                               int jobs = 0) {
  SupervisedRun<R> out;
  out.results.resize(cells);
  EncodedSupervisedRun enc = RunSupervisedStream(
      options, cells, std::forward<Fn>(run_cell),
      [&out](size_t i, R&& result) { out.results[i] = std::move(result); },
      std::move(codec), jobs);
  out.outcomes = std::move(enc.outcomes);
  out.stats = enc.stats;
  return out;
}

}  // namespace elsc

#endif  // SRC_HARNESS_SUPERVISOR_H_
