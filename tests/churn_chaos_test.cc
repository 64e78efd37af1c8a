// Connection-lifecycle chaos under load: retrying clients with deterministic
// jittered backoff complete their work under injected reset storms on every
// scheduler backend, while a no-retry control visibly abandons. Also proves
// the webserver's accept-queue reset tolerance (workers re-listen, losses
// are accounted by cause) and that chaos runs are bit-deterministic.

#include <gtest/gtest.h>

#include "src/api/simulation.h"

namespace elsc {
namespace {

// ConnChaosPlan tightened so every injector fires many times inside a run
// that lasts tens of simulated milliseconds.
FaultPlan HostilePlan(uint64_t seed) {
  FaultPlan plan = ConnChaosPlan(seed);
  plan.conn_reset_period = MsToCycles(3);
  plan.conn_resets_per_burst = 2;
  plan.half_open_period = MsToCycles(15);
  plan.slow_peer_period = MsToCycles(10);
  plan.slow_peer_duration = MsToCycles(4);
  plan.reconnect_storm_period = MsToCycles(25);
  plan.reconnect_storm_size = 4;
  return plan;
}

VolanoConfig ChurnConfig() {
  VolanoConfig config;
  config.rooms = 2;
  config.users_per_room = 3;
  config.messages_per_user = 5;
  config.churn = true;
  config.ack_timeout = MsToCycles(10);
  return config;
}

class ChurnChaosTest : public ::testing::TestWithParam<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(AllSchedulers, ChurnChaosTest,
                         ::testing::Values(SchedulerKind::kLinux, SchedulerKind::kElsc,
                                           SchedulerKind::kHeap, SchedulerKind::kMultiQueue,
                                           SchedulerKind::kO1),
                         [](const auto& info) { return SchedulerKindName(info.param); });

TEST_P(ChurnChaosTest, RetryingClientsCompleteUnderResetStorms) {
  const uint64_t seed = 1234;
  ChaosOptions chaos;
  chaos.faults = HostilePlan(seed);
  const VolanoRun run =
      RunVolano(MakeMachineConfig(KernelConfig::kSmp2, GetParam(), seed),
                ChurnConfig(), SecToCycles(600), chaos);

  ASSERT_TRUE(run.result.completed);
  // The chaos actually happened and the clients actually fought through it.
  EXPECT_GT(run.stats.faults.conn_resets, 0u);
  EXPECT_GT(run.result.resets_seen, 0u);
  EXPECT_GT(run.result.retries, 0u);
  EXPECT_EQ(run.result.retries, run.result.reconnects);
  EXPECT_GT(run.result.messages_delivered, 0u);
  // Backoff gives every client max_retries attempts per round; under this
  // storm that is enough for the overwhelming majority to finish.
  EXPECT_LE(run.result.abandons,
            static_cast<uint64_t>(ChurnConfig().rooms * ChurnConfig().users_per_room) / 2);
}

TEST_P(ChurnChaosTest, NoRetryControlVisiblyAbandons) {
  const uint64_t seed = 1234;
  ChaosOptions chaos;
  chaos.faults = HostilePlan(seed);
  VolanoConfig config = ChurnConfig();
  config.backoff.max_retries = 0;  // First failure => give up.
  const VolanoRun control =
      RunVolano(MakeMachineConfig(KernelConfig::kSmp2, GetParam(), seed),
                config, SecToCycles(600), chaos);

  // Teardown is still orderly — abandoning closes the connection and the
  // remaining threads drain to EOF — but the work visibly does not finish.
  ASSERT_TRUE(control.result.completed);
  EXPECT_GT(control.result.abandons, 0u);
  EXPECT_EQ(control.result.retries, 0u);
  EXPECT_LT(control.result.messages_delivered,
            ChurnConfig().expected_deliveries());
}

TEST_P(ChurnChaosTest, ChurnRunsAreDeterministic) {
  const uint64_t seed = 77;
  auto run_once = [&] {
    ChaosOptions chaos;
    chaos.faults = HostilePlan(seed);
    return RunVolano(MakeMachineConfig(KernelConfig::kSmp2, GetParam(), seed),
                     ChurnConfig(), SecToCycles(600), chaos);
  };
  const VolanoRun a = run_once();
  const VolanoRun b = run_once();
  EXPECT_EQ(EncodeVolanoRun(a), EncodeVolanoRun(b));
  EXPECT_EQ(RunStatsDigest(a.stats), RunStatsDigest(b.stats));
  EXPECT_EQ(EngineDigest(a.stats), EngineDigest(b.stats));
}

class WebserverChaosTest : public ::testing::TestWithParam<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(AllSchedulers, WebserverChaosTest,
                         ::testing::Values(SchedulerKind::kLinux, SchedulerKind::kElsc,
                                           SchedulerKind::kHeap, SchedulerKind::kMultiQueue,
                                           SchedulerKind::kO1),
                         [](const auto& info) { return SchedulerKindName(info.param); });

TEST_P(WebserverChaosTest, AcceptQueueResetsAreSurvivedAndAccounted) {
  const uint64_t seed = 99;
  WebserverConfig config;
  config.workers = 8;
  config.arrival_rate_per_sec = 2000.0;
  config.duration = MsToCycles(200);
  config.accept_queue_capacity = 16;
  config.accept_timeout = MsToCycles(5);
  config.retry_arrivals = true;
  ChaosOptions chaos;
  chaos.faults = HostilePlan(seed);
  const WebserverRun run = RunWebserver(
      MakeMachineConfig(KernelConfig::kSmp2, GetParam(), seed), config,
      SecToCycles(600), chaos);

  const WebserverResult& r = run.result;
  ASSERT_FALSE(run.stats.failed);
  EXPECT_GT(run.stats.faults.conn_resets, 0u);
  // Workers re-listened after every reset: requests still completed, and
  // every arrival is accounted exactly once.
  EXPECT_GT(r.requests_completed, 0u);
  EXPECT_GT(r.dropped_reset, 0u);
  EXPECT_EQ(r.requests_dropped, r.dropped_backlog + r.dropped_shed + r.dropped_reset);
  EXPECT_EQ(r.requests_completed, r.requests_arrived - r.requests_dropped);
}

}  // namespace
}  // namespace elsc
