// Tests for the VolanoMark simulation: message accounting, completion,
// thread population, determinism, pacing invariants, and the scheduler-
// sensitive statistics the paper's figures are built from.

#include "src/workloads/volano.h"

#include <gtest/gtest.h>

#include "src/api/simulation.h"

namespace elsc {
namespace {

VolanoConfig TinyConfig() {
  VolanoConfig config;
  config.rooms = 1;
  config.users_per_room = 4;
  config.messages_per_user = 5;
  return config;
}

class VolanoSchedulerTest : public ::testing::TestWithParam<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(AllSchedulers, VolanoSchedulerTest,
                         ::testing::Values(SchedulerKind::kLinux, SchedulerKind::kElsc,
                                           SchedulerKind::kHeap, SchedulerKind::kMultiQueue,
                                           SchedulerKind::kO1),
                         [](const auto& info) { return SchedulerKindName(info.param); });

TEST_P(VolanoSchedulerTest, TinyRoomCompletesWithExactCounts) {
  MachineConfig mc;
  mc.num_cpus = 1;
  mc.smp = false;
  mc.scheduler = GetParam();
  mc.check_invariants = true;
  Machine machine(mc);
  const VolanoConfig vc = TinyConfig();
  VolanoWorkload workload(machine, vc);
  workload.Setup();
  machine.Start();
  ASSERT_TRUE(machine.RunUntil([&workload] { return workload.Done(); }, SecToCycles(600)));

  // Every user sent every message; every broadcast reached every member.
  EXPECT_EQ(workload.messages_sent(), 4u * 5u);
  EXPECT_EQ(workload.messages_delivered(), vc.expected_deliveries());
  EXPECT_EQ(workload.messages_delivered(), 4u * 4u * 5u);
  EXPECT_EQ(machine.live_tasks(), 0u);
}

TEST_P(VolanoSchedulerTest, SmpTinyRoomCompletes) {
  MachineConfig mc;
  mc.num_cpus = 2;
  mc.smp = true;
  mc.scheduler = GetParam();
  mc.check_invariants = true;
  Machine machine(mc);
  VolanoWorkload workload(machine, TinyConfig());
  workload.Setup();
  machine.Start();
  ASSERT_TRUE(machine.RunUntil([&workload] { return workload.Done(); }, SecToCycles(600)));
  EXPECT_TRUE(workload.Result().completed);
}

TEST(VolanoConfigTest, ThreadAndMessageArithmetic) {
  VolanoConfig config;
  config.rooms = 10;
  // 4 threads per connection, 20 users per room => 80 threads per room,
  // exactly the paper's numbers (§6).
  EXPECT_EQ(config.threads_per_connection(), 4);
  EXPECT_EQ(config.total_threads(), 800);
  // 20 users x 100 messages x 20 recipients per room.
  EXPECT_EQ(config.expected_deliveries(), 10ull * 20 * 20 * 100);
}

TEST(VolanoWorkloadTest, PopulationMatchesPaperDuringChat) {
  // After the ramp completes, the task population is 4 threads per
  // connection (the connector and listener have exited).
  MachineConfig mc;
  mc.num_cpus = 1;
  mc.smp = false;
  mc.scheduler = SchedulerKind::kElsc;
  Machine machine(mc);
  VolanoConfig vc;
  vc.rooms = 2;
  vc.users_per_room = 5;
  vc.messages_per_user = 50;
  VolanoWorkload workload(machine, vc);
  workload.Setup();
  // Boot: only listener + connector.
  EXPECT_EQ(machine.live_tasks(), 2u);
  machine.Start();
  machine.RunUntil([&workload] { return workload.chat_started(); }, SecToCycles(300));
  ASSERT_TRUE(workload.chat_started());
  machine.RunFor(MsToCycles(100));
  // 2 rooms x 5 users x 4 threads; ramp threads have exited by now or are
  // exiting — allow them to linger briefly.
  EXPECT_GE(machine.live_tasks(), 40u);
  EXPECT_LE(machine.live_tasks(), 42u);
}

TEST(VolanoWorkloadTest, DeterministicThroughput) {
  auto run_once = [] {
    MachineConfig mc;
    mc.num_cpus = 2;
    mc.smp = true;
    mc.scheduler = SchedulerKind::kElsc;
    mc.seed = 99;
    Machine machine(mc);
    VolanoConfig vc;
    vc.rooms = 1;
    vc.users_per_room = 6;
    vc.messages_per_user = 10;
    VolanoWorkload workload(machine, vc);
    workload.Setup();
    machine.Start();
    machine.RunUntil([&workload] { return workload.Done(); }, SecToCycles(600));
    return machine.Now();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(VolanoWorkloadTest, SeedChangesOutcomeSlightly) {
  auto run_with_seed = [](uint64_t seed) {
    MachineConfig mc;
    mc.num_cpus = 1;
    mc.smp = false;
    mc.scheduler = SchedulerKind::kElsc;
    mc.seed = seed;
    Machine machine(mc);
    VolanoConfig vc;
    vc.rooms = 1;
    vc.users_per_room = 4;
    vc.messages_per_user = 10;
    VolanoWorkload workload(machine, vc);
    workload.Setup();
    machine.Start();
    machine.RunUntil([&workload] { return workload.Done(); }, SecToCycles(600));
    return machine.Now();
  };
  const Cycles a = run_with_seed(1);
  const Cycles b = run_with_seed(2);
  EXPECT_NE(a, b);
  // Same workload, same costs: elapsed times stay within a factor of two.
  EXPECT_LT(std::max(a, b), 2 * std::min(a, b));
}

TEST(VolanoWorkloadTest, StockSchedulerRecalculatesMoreThanElsc) {
  // The Figure 2 contrast at miniature scale: the stock scheduler's
  // recalculate-loop entries exceed ELSC's by orders of magnitude.
  auto recalcs_for = [](SchedulerKind kind) {
    MachineConfig mc;
    mc.num_cpus = 1;
    mc.smp = false;
    mc.scheduler = kind;
    Machine machine(mc);
    VolanoConfig vc;
    vc.rooms = 2;
    VolanoWorkload workload(machine, vc);
    workload.Setup();
    machine.Start();
    machine.RunUntil([&workload] { return workload.Done(); }, SecToCycles(1200));
    return machine.scheduler().stats().recalc_entries;
  };
  const uint64_t stock = recalcs_for(SchedulerKind::kLinux);
  const uint64_t elsc = recalcs_for(SchedulerKind::kElsc);
  EXPECT_GT(stock, 100u);
  EXPECT_LT(elsc, 20u);
}

TEST(VolanoWorkloadTest, ElscExaminesBoundedTasks) {
  MachineConfig mc;
  mc.num_cpus = 1;
  mc.smp = false;
  mc.scheduler = SchedulerKind::kElsc;
  Machine machine(mc);
  VolanoConfig vc;
  vc.rooms = 2;
  VolanoWorkload workload(machine, vc);
  workload.Setup();
  machine.Start();
  ASSERT_TRUE(machine.RunUntil([&workload] { return workload.Done(); }, SecToCycles(1200)));
  const auto& stats = machine.scheduler().stats();
  // Search limit on UP is 5; the average must sit well below it.
  EXPECT_LT(stats.TasksExaminedPerCall(), 5.0);
}

}  // namespace
}  // namespace elsc
