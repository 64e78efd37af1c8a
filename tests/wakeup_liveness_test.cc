// Wakeup liveness on wide machines: every scheduler backend runs small
// VolanoMark cells at 16 and 64 CPUs under the strict auditor, with every
// fault injector armed and without, over a few seeds. A lost wakeup strands
// a thread on a socket, so a cell that delivers fewer than
// rooms * users^2 * messages, trips the starvation or livelock watchdog, or
// records an audit violation fails with a one-line repro.

#include <gtest/gtest.h>

#include <string>

#include "src/api/simulation.h"
#include "src/base/string_util.h"
#include "src/faults/auditor.h"
#include "src/faults/fault_plan.h"
#include "src/sched/factory.h"

namespace elsc {
namespace {

// Runs one cell; returns "" or the repro line.
std::string RunWideVolano(SchedulerKind kind, int cpus, uint64_t seed, bool chaos) {
  MachineConfig mc;  // Built directly, as bench/o1_scaling does: past kSmp4.
  mc.num_cpus = cpus;
  mc.smp = true;
  mc.scheduler = kind;
  mc.seed = seed;
  VolanoConfig volano;
  // 128 threads and 0.1-0.4 simulated seconds: long enough for tick drops,
  // spurious-wake bursts, the yield hammer and lock-holder stalls to fire.
  volano.rooms = 4;
  volano.users_per_room = 8;
  volano.messages_per_user = 20;
  ChaosOptions options;
  if (chaos) {
    options.faults = FullChaosPlan(seed);
  }
  options.audit = StrictAudit();
  const VolanoRun run = RunVolano(mc, volano, SecToCycles(3600), options);
  const uint64_t expected = volano.expected_deliveries();
  if (run.result.completed && run.result.messages_delivered == expected && !run.stats.failed &&
      run.stats.audit.violations() == 0 && run.stats.audit.watchdog_firings() == 0) {
    return "";
  }
  return StrFormat("repro: RunWideVolano(%s, cpus=%d, seed=%llu, chaos=%d): completed=%d "
                   "delivered %llu of %llu, audit violations %llu, watchdog firings %llu%s%s",
                   SchedulerKindName(kind), cpus, static_cast<unsigned long long>(seed),
                   chaos ? 1 : 0, run.result.completed ? 1 : 0,
                   static_cast<unsigned long long>(run.result.messages_delivered),
                   static_cast<unsigned long long>(expected),
                   static_cast<unsigned long long>(run.stats.audit.violations()),
                   static_cast<unsigned long long>(run.stats.audit.watchdog_firings()),
                   run.stats.failed ? ", failed: " : "", run.stats.failure.c_str());
}

TEST(WakeupLivenessTest, WideVolanoCellsDeliverEveryMessageOnEveryBackend) {
  int cells = 0;
  for (SchedulerKind kind : AllSchedulerKinds()) {
    for (int cpus : {16, 64}) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        for (bool chaos : {false, true}) {
          const std::string failure = RunWideVolano(kind, cpus, seed, chaos);
          EXPECT_EQ(failure, "");
          ++cells;
        }
      }
    }
  }
  EXPECT_EQ(cells, static_cast<int>(AllSchedulerKinds().size()) * 2 * 3 * 2);
}

}  // namespace
}  // namespace elsc
