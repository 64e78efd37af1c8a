// Procfs-style scheduler statistics report.
//
// The paper collected scheduler statistics during VolanoMark runs and exposed
// them through the proc filesystem (§6); this renders the simulation's
// equivalent counters in that spirit, one `key: value` per line.

#ifndef SRC_STATS_PROC_REPORT_H_
#define SRC_STATS_PROC_REPORT_H_

#include <string>

#include "src/harness/supervisor.h"
#include "src/smp/machine.h"

namespace elsc {

// Renders /proc/elsc_sched_stats-style text for a machine after (or during)
// a run.
std::string RenderProcSchedStats(const Machine& machine);

// Renders the run-supervisor's aggregate counters (retries, quarantines,
// timeouts, resumed-from-journal cells) in the same `key: value` style; the
// bench binaries print this after their tables so an operator reading the
// log can tell a clean matrix from a supervised-but-degraded one.
std::string RenderSupervisionReport(const SupervisionStats& stats);

// One-line run configuration descriptor: "UP" / "1P" / "2P" / "4P" per the
// paper's kernel configurations.
std::string ConfigLabel(const MachineConfig& config);

}  // namespace elsc

#endif  // SRC_STATS_PROC_REPORT_H_
