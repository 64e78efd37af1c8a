#include "src/harness/supervisor.h"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <new>
#include <stdexcept>
#include <thread>

#include "src/base/assert.h"
#include "src/base/atomic_file.h"
#include "src/base/watchdog.h"
#include "src/harness/journal.h"
#include "src/harness/run_matrix.h"
#include "src/harness/shutdown.h"

namespace elsc {

namespace {

// Parsed ELSC_SUPERVISE_INJECT spec: "<kind>@<index>[:once]".
struct InjectSpec {
  FailureKind kind = FailureKind::kNone;
  size_t index = 0;
  bool once = false;
  bool active = false;
};

InjectSpec ParseInject(const std::string& spec) {
  InjectSpec out;
  if (spec.empty()) {
    return out;
  }
  const size_t at = spec.find('@');
  if (at == std::string::npos) {
    std::fprintf(stderr,
                 "elsc-supervisor: ignoring malformed ELSC_SUPERVISE_INJECT "
                 "\"%s\" (want <kind>@<index>[:once])\n",
                 spec.c_str());
    return out;
  }
  const std::string kind = spec.substr(0, at);
  std::string rest = spec.substr(at + 1);
  const size_t colon = rest.find(':');
  if (colon != std::string::npos) {
    out.once = rest.substr(colon + 1) == "once";
    rest = rest.substr(0, colon);
  }
  if (kind == "crash") {
    out.kind = FailureKind::kException;
  } else if (kind == "violate") {
    out.kind = FailureKind::kViolation;
  } else if (kind == "timeout") {
    out.kind = FailureKind::kTimeout;
  } else {
    std::fprintf(stderr,
                 "elsc-supervisor: ignoring ELSC_SUPERVISE_INJECT with unknown "
                 "kind \"%s\" (want crash|violate|timeout)\n",
                 kind.c_str());
    return out;
  }
  out.index = static_cast<size_t>(std::strtoull(rest.c_str(), nullptr, 10));
  out.active = true;
  return out;
}

void MaybeInject(const InjectSpec& inject, size_t index, int attempt,
                 double budget_sec) {
  if (!inject.active || inject.index != index ||
      (inject.once && attempt != 0)) {
    return;
  }
  switch (inject.kind) {
    case FailureKind::kException:
      throw std::runtime_error("injected crash (ELSC_SUPERVISE_INJECT)");
    case FailureKind::kViolation:
      ELSC_VERIFY_MSG(false, "injected invariant violation (ELSC_SUPERVISE_INJECT)");
      return;
    case FailureKind::kTimeout:
      throw CellDeadlineExceeded{budget_sec};
    default:
      return;
  }
}

double EnvDouble(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const double value = std::strtod(env, &end);
  return end != env ? value : fallback;
}

int EnvInt(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') {
    return fallback;
  }
  return std::atoi(env);
}

std::string EnvString(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr ? std::string(env) : std::string();
}

// Shared by all supervisors in the process: quarantine files may be shared
// across matrices within one bench binary.
std::mutex g_quarantine_mu;

void ReportQuarantine(const SupervisorOptions& options, size_t index,
                      const CellOutcome& outcome) {
  const std::string repro =
      options.repro ? options.repro(index) : std::string("(no repro recorded)");
  char line[1024];
  std::snprintf(line, sizeof(line),
                "elsc-supervisor: QUARANTINE cell=%zu kind=%s class=%s "
                "attempts=%d error=\"%s\" repro: %s",
                index, FailureKindName(outcome.kind),
                FailureClassName(Classify(outcome.kind)), outcome.attempts,
                outcome.error.c_str(), repro.c_str());
  std::fprintf(stderr, "%s\n", line);
  if (!options.quarantine_path.empty()) {
    // Read-append-rewrite through AtomicWriteFile: a kill mid-report leaves
    // either the previous quarantine file or the new one, never a torn line.
    std::lock_guard<std::mutex> lock(g_quarantine_mu);
    std::string contents;
    ReadFileToString(options.quarantine_path, &contents);
    contents += line;
    contents += '\n';
    std::string write_error;
    if (!AtomicWriteFile(options.quarantine_path, contents, &write_error)) {
      std::fprintf(stderr, "elsc-supervisor: cannot write quarantine file: %s\n",
                   write_error.c_str());
    }
  }
}

}  // namespace

SupervisorOptions SupervisorOptions::FromEnv() {
  SupervisorOptions options;
  options.cell_timeout_sec = EnvDouble("ELSC_CELL_TIMEOUT_MS", 0.0) / 1000.0;
  options.max_retries = EnvInt("ELSC_CELL_RETRIES", 2);
  if (options.max_retries < 0) {
    options.max_retries = 0;
  }
  options.journal_path = EnvString("ELSC_RUN_JOURNAL");
  options.quarantine_path = EnvString("ELSC_QUARANTINE_FILE");
  options.inject_spec = EnvString("ELSC_SUPERVISE_INJECT");
  return options;
}

SupervisionStats SummarizeOutcomes(const std::vector<CellOutcome>& outcomes) {
  SupervisionStats stats;
  stats.cells = outcomes.size();
  for (const CellOutcome& outcome : outcomes) {
    switch (outcome.status) {
      case CellStatus::kOk:
        ++stats.completed;
        if (outcome.resumed) {
          ++stats.resumed;
        }
        break;
      case CellStatus::kQuarantined:
        ++stats.quarantined;
        break;
      case CellStatus::kSkipped:
        ++stats.skipped;
        break;
    }
    if (outcome.attempts > 1) {
      stats.retries += static_cast<uint64_t>(outcome.attempts - 1);
    }
    stats.timeouts += static_cast<uint64_t>(outcome.timeouts);
    stats.violations += static_cast<uint64_t>(outcome.violations);
    stats.exceptions += static_cast<uint64_t>(outcome.exceptions);
  }
  return stats;
}

EncodedSupervisedRun RunSupervisedEncoded(
    const SupervisorOptions& options, size_t cells,
    const std::function<std::string(size_t)>& run_encoded,
    const std::function<bool(size_t, const std::string&)>& load_encoded,
    int jobs) {
  EncodedSupervisedRun out;
  out.outcomes.resize(cells);

  // --- Journal setup -------------------------------------------------------
  RunJournal journal;
  if (!options.journal_path.empty()) {
    if (load_encoded == nullptr) {
      std::fprintf(stderr,
                   "elsc-supervisor: ELSC_RUN_JOURNAL set but this matrix has "
                   "no result codec; running un-journaled\n");
    } else {
      char suffix[32];
      std::snprintf(suffix, sizeof(suffix), ".%016" PRIx64, options.matrix_id);
      const std::string path = options.journal_path + suffix;
      if (!journal.Open(path, options.matrix_id, cells)) {
        std::fprintf(stderr,
                     "elsc-supervisor: cannot use journal %s (%s); running "
                     "un-journaled\n",
                     path.c_str(), journal.error().c_str());
      }
    }
  }

  // Resume: decode journaled results up front (serial — decoding is cheap and
  // this keeps the parallel section free of shared-map reads).
  std::vector<char> resumed(cells, 0);
  if (journal.open()) {
    for (const auto& [index, entry] : journal.entries()) {
      if (load_encoded(index, entry.payload)) {
        resumed[index] = 1;
        CellOutcome& outcome = out.outcomes[index];
        outcome.status = CellStatus::kOk;
        outcome.attempts = entry.attempts;
        outcome.resumed = true;
      }
      // Decode failure: fall through and re-run the cell.
    }
  }

  const InjectSpec inject = ParseInject(options.inject_spec);
  std::atomic<bool> stop{false};
  std::atomic<size_t> journaled{0};

  ParallelFor(cells, jobs == 0 ? BenchJobs() : jobs, [&](size_t i) {
    CellOutcome& outcome = out.outcomes[i];
    if (resumed[i]) {
      return;  // Loaded from the journal; outcome already filled in.
    }
    if (stop.load(std::memory_order_acquire) || ShutdownRequested()) {
      // The interrupt hook fired or SIGTERM/SIGINT arrived: stop starting
      // cells. Skipped cells are never journaled, so a rerun resumes them.
      outcome.status = CellStatus::kSkipped;
      return;
    }
    double budget = options.cell_timeout_sec;
    for (int attempt = 0;; ++attempt) {
      FailureKind kind = FailureKind::kNone;
      std::string error;
      try {
        ViolationTrap trap;
        CellWatchdog watchdog(budget);
        MaybeInject(inject, i, attempt, budget);
        const std::string payload = run_encoded(i);
        outcome.status = CellStatus::kOk;
        outcome.attempts = attempt + 1;
        if (journal.open()) {
          journal.Append(i, outcome.attempts, payload);
          if (options.interrupt_after_journaled != 0 &&
              journaled.fetch_add(1, std::memory_order_acq_rel) + 1 >=
                  options.interrupt_after_journaled) {
            stop.store(true, std::memory_order_release);
          }
        }
        return;
      } catch (const GracefulShutdownRequested&) {
        // SIGTERM/SIGINT unwound the cell mid-run. Deliberately NOT a
        // failure: the cell is marked skipped and never journaled (nor
        // quarantined), so a rerun under the same journal resumes it — from
        // its own checkpoint segment, if the cell wrote one on the way out.
        outcome.status = CellStatus::kSkipped;
        outcome.attempts = attempt + 1;
        stop.store(true, std::memory_order_release);
        return;
      } catch (const CellDeadlineExceeded& deadline) {
        kind = FailureKind::kTimeout;
        char buf[96];
        std::snprintf(buf, sizeof(buf), "cell exceeded %.3fs wall-clock budget",
                      deadline.budget_sec);
        error = buf;
        ++outcome.timeouts;
      } catch (const InvariantViolation& violation) {
        kind = FailureKind::kViolation;
        char buf[512];
        std::snprintf(buf, sizeof(buf), "ELSC_VERIFY(%s) failed at %s:%d%s%s",
                      violation.info.expr != nullptr ? violation.info.expr : "?",
                      violation.info.file != nullptr ? violation.info.file : "?",
                      violation.info.line,
                      violation.info.msg != nullptr ? ": " : "",
                      violation.info.msg != nullptr ? violation.info.msg : "");
        error = buf;
        ++outcome.violations;
      } catch (const std::bad_alloc&) {
        kind = FailureKind::kResource;
        error = "std::bad_alloc";
        ++outcome.exceptions;
      } catch (const std::exception& e) {
        kind = FailureKind::kException;
        error = e.what();
        ++outcome.exceptions;
      } catch (...) {
        kind = FailureKind::kException;
        error = "unknown exception";
        ++outcome.exceptions;
      }

      outcome.kind = kind;
      outcome.error = error;
      outcome.attempts = attempt + 1;

      if (Classify(kind) == FailureClass::kTransient &&
          attempt < options.max_retries) {
        std::fprintf(stderr,
                     "elsc-supervisor: retry cell=%zu attempt=%d kind=%s (%s)\n",
                     i, attempt + 2, FailureKindName(kind), error.c_str());
        double backoff = options.backoff_base_sec;
        for (int b = 0; b < attempt; ++b) {
          backoff *= 2.0;
        }
        if (backoff > options.backoff_cap_sec) {
          backoff = options.backoff_cap_sec;
        }
        if (backoff > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        }
        if (budget > 0.0 && options.timeout_growth > 1.0) {
          budget *= options.timeout_growth;
        }
        continue;
      }

      outcome.status = CellStatus::kQuarantined;
      ReportQuarantine(options, i, outcome);
      return;
    }
  });

  out.stats = SummarizeOutcomes(out.outcomes);
  out.stats.interrupted = stop.load(std::memory_order_acquire) ? 1 : 0;
  return out;
}

}  // namespace elsc
