// Cooperative per-cell wall-clock watchdog.
//
// The simulator is single-threaded within a cell, so a wedged cell (livelock,
// pathological scheduler, runaway event loop) cannot be interrupted from
// outside without killing the whole process. Instead the watchdog is
// *cooperative*: the supervisor arms a thread-local deadline around the cell
// body, and the simulation's inner loops (Engine::RunUntil /
// RunUntilCondition) call CellWatchdog::Poll() once per event batch. When the
// deadline passes, Poll() throws CellDeadlineExceeded, which unwinds the cell
// cleanly through the Run* facades into the supervisor.
//
// CellDeadlineExceeded is deliberately NOT derived from std::exception, for
// the same reason InvariantViolation is not (src/base/assert.h): the facades
// catch std::exception to convert workload bugs into failed RunStats, and a
// deadline must punch through those handlers to reach the supervisor, which
// classifies it as transient (FailureKind::kTimeout) and retries with a
// larger budget.
//
// Poll() costs one thread-local load and a predictable branch when no
// watchdog is armed; the actual clock read is rate-limited inside Check() so
// even armed runs only touch steady_clock every few thousand polls.

#ifndef SRC_BASE_WATCHDOG_H_
#define SRC_BASE_WATCHDOG_H_

#include <chrono>
#include <cstdint>

namespace elsc {

// Thrown by CellWatchdog::Poll() when the armed deadline has passed.
struct CellDeadlineExceeded {
  double budget_sec = 0.0;  // The budget that was exceeded.
};

// ELSC_CELL_TIMEOUT_MS in seconds, 0 (off) when unset: the supervisor's
// per-cell budget and the federation's per-window budget.
double CellTimeoutSec();

class CellWatchdog {
 public:
  // Arms a deadline of `budget_sec` wall-clock seconds on this thread.
  // A budget <= 0 installs nothing (Poll() stays a no-op), so callers can
  // pass a config value straight through without branching.
  explicit CellWatchdog(double budget_sec);
  ~CellWatchdog();

  CellWatchdog(const CellWatchdog&) = delete;
  CellWatchdog& operator=(const CellWatchdog&) = delete;

  // Called from simulation inner loops. No-op unless a watchdog is armed on
  // this thread; throws CellDeadlineExceeded once the deadline passes.
  static void Poll() {
    if (active_ != nullptr) {
      active_->Check();
    }
  }

  // True iff a watchdog is armed on the current thread (used by tests).
  static bool Armed() { return active_ != nullptr; }

 private:
  void Check();

  static thread_local CellWatchdog* active_;

  double budget_sec_ = 0.0;
  std::chrono::steady_clock::time_point deadline_;
  CellWatchdog* prev_ = nullptr;  // Watchdogs nest like ViolationTraps.
  uint32_t countdown_ = 0;        // Polls remaining until the next clock read.
  bool armed_ = false;
};

}  // namespace elsc

#endif  // SRC_BASE_WATCHDOG_H_
