#include "src/base/watchdog.h"

#include "src/base/knob.h"

namespace elsc {

thread_local CellWatchdog* CellWatchdog::active_ = nullptr;

double CellTimeoutSec() { return NumberEnv("ELSC_CELL_TIMEOUT_MS", 0.0) / 1000.0; }

namespace {
// How many Poll() hits to absorb between steady_clock reads. Engine::RunUntil
// polls once per event; at the simulator's ~20M events/s this checks the
// clock a few thousand times a second — responsive to within a few ms while
// keeping the clock read off the hot path.
constexpr uint32_t kPollsPerClockRead = 4096;
}  // namespace

CellWatchdog::CellWatchdog(double budget_sec) : budget_sec_(budget_sec) {
  if (budget_sec <= 0.0) {
    return;  // Disabled: leave the previous (or no) watchdog in place.
  }
  deadline_ = std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(budget_sec));
  prev_ = active_;
  active_ = this;
  countdown_ = kPollsPerClockRead;
  armed_ = true;
}

CellWatchdog::~CellWatchdog() {
  if (armed_) {
    active_ = prev_;
  }
}

void CellWatchdog::Check() {
  if (countdown_-- != 0) {
    return;
  }
  countdown_ = kPollsPerClockRead;
  if (std::chrono::steady_clock::now() >= deadline_) {
    throw CellDeadlineExceeded{budget_sec_};
  }
}

}  // namespace elsc
