// Process-kill injection for checkpoint/recovery drills.
//
// ELSC_SCALE_INJECT_KILL=<window> makes the scale coordinator abort the
// whole process (std::_Exit, no unwinding, no atexit — the closest portable
// stand-in for SIGKILL) at the end of the matching window barrier, after
// that barrier's checkpoint segment has been written. CI and tests then
// rerun the binary and assert the resumed output is byte-identical to an
// uninterrupted control run.

#ifndef SRC_FAULTS_KILL_POINT_H_
#define SRC_FAULTS_KILL_POINT_H_

#include <cstdint>

namespace elsc {

// Exit status used by the injected kill, mirroring a SIGKILL'd process as
// seen by shell (128 + 9).
inline constexpr int kInjectedKillExitCode = 137;

// ELSC_SCALE_INJECT_KILL: the window, counting from 1, whose barrier kills
// the process, or 0 (off) when unset; anything else exits 2
// (src/base/knob.h). Read when a federation is built.
uint64_t ScaleKillWindow();

// Kills the process iff window_index is kill_window (0 never kills). Called
// by the scale coordinator at the end of each window barrier.
void MaybeKillAtScaleWindow(uint64_t kill_window, uint64_t window_index);

}  // namespace elsc

#endif  // SRC_FAULTS_KILL_POINT_H_
