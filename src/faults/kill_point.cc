#include "src/faults/kill_point.h"

#include <cstdio>
#include <cstdlib>

#include "src/base/knob.h"

namespace elsc {

uint64_t ScaleKillWindow() {
  // The fallback 0 lies below the knob's minimum on purpose: it means off.
  return IntEnv("ELSC_SCALE_INJECT_KILL", 0, 1, INT64_MAX);
}

void MaybeKillAtScaleWindow(uint64_t kill_window, uint64_t window_index) {
  if (kill_window == 0 || kill_window != window_index) {
    return;
  }
  std::fprintf(stderr,
               "kill_point: ELSC_SCALE_INJECT_KILL=%llu hit at window %llu, exiting %d\n",
               static_cast<unsigned long long>(kill_window),
               static_cast<unsigned long long>(window_index), kInjectedKillExitCode);
  std::fflush(nullptr);
  // _Exit: no stack unwinding, no atexit handlers — mimic an abrupt kill as
  // closely as possible while keeping a distinctive exit status for CI.
  std::_Exit(kInjectedKillExitCode);
}

}  // namespace elsc
