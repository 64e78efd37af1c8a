// Tests for the Apache-style web-server workload (future work §8).

#include "src/workloads/webserver.h"

#include <gtest/gtest.h>

#include "src/api/simulation.h"

namespace elsc {
namespace {

WebserverConfig SmallServer() {
  WebserverConfig config;
  config.workers = 10;
  config.arrival_rate_per_sec = 400.0;
  config.duration = SecToCycles(2);
  return config;
}

class WebserverSchedulerTest : public ::testing::TestWithParam<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(AllSchedulers, WebserverSchedulerTest,
                         ::testing::ValuesIn(AllSchedulerKinds()),
                         [](const auto& info) { return SchedulerKindName(info.param); });

TEST_P(WebserverSchedulerTest, ServesRequestsAndDrains) {
  MachineConfig mc;
  mc.num_cpus = 2;
  mc.smp = true;
  mc.scheduler = GetParam();
  mc.check_invariants = true;
  Machine machine(mc);
  WebserverWorkload workload(machine, SmallServer());
  workload.Setup();
  machine.Start();
  ASSERT_TRUE(machine.RunUntil([&workload] { return workload.Done(); }, SecToCycles(60)));
  const WebserverResult result = workload.Result();
  EXPECT_GT(result.requests_arrived, 500u);
  EXPECT_EQ(result.requests_completed, result.requests_arrived - result.requests_dropped);
  EXPECT_GT(result.throughput, 0.0);
  EXPECT_GT(result.latency_p50_us, 0u);
  EXPECT_GE(result.latency_p99_us, result.latency_p50_us);
  EXPECT_EQ(machine.live_tasks(), 0u);  // Workers exited after the window.
}

TEST_P(WebserverSchedulerTest, UnderloadedServerHasLowLatency) {
  MachineConfig mc;
  mc.num_cpus = 2;
  mc.smp = true;
  mc.scheduler = GetParam();
  Machine machine(mc);
  WebserverConfig wc = SmallServer();
  wc.arrival_rate_per_sec = 50.0;  // Far below capacity.
  wc.disk_probability = 0.0;
  WebserverWorkload workload(machine, wc);
  workload.Setup();
  machine.Start();
  ASSERT_TRUE(machine.RunUntil([&workload] { return workload.Done(); }, SecToCycles(60)));
  const WebserverResult result = workload.Result();
  EXPECT_EQ(result.requests_dropped, 0u);
  // Parse + respond ≈ 0.65 ms of work; allow generous scheduling slack.
  EXPECT_LT(result.latency_p50_us, 3000u);
}

TEST(WebserverWorkloadTest, ArrivalRateRoughlyHonored) {
  MachineConfig mc;
  mc.num_cpus = 4;
  mc.smp = true;
  mc.scheduler = SchedulerKind::kElsc;
  mc.seed = 3;
  Machine machine(mc);
  WebserverConfig wc = SmallServer();
  wc.workers = 50;
  wc.arrival_rate_per_sec = 1000.0;
  wc.duration = SecToCycles(4);
  WebserverWorkload workload(machine, wc);
  workload.Setup();
  machine.Start();
  ASSERT_TRUE(machine.RunUntil([&workload] { return workload.Done(); }, SecToCycles(120)));
  const WebserverResult result = workload.Result();
  // Poisson with rate 1000/s over 4 s: expect ~4000 +/- 10%.
  EXPECT_NEAR(static_cast<double>(result.requests_arrived), 4000.0, 400.0);
}

TEST(WebserverWorkloadTest, OverloadDropsAtAcceptQueue) {
  MachineConfig mc;
  mc.num_cpus = 1;
  mc.smp = false;
  mc.scheduler = SchedulerKind::kLinux;
  Machine machine(mc);
  WebserverConfig wc = SmallServer();
  wc.workers = 2;
  wc.arrival_rate_per_sec = 20000.0;  // Hopeless overload.
  wc.accept_queue_capacity = 16;
  wc.duration = SecToCycles(1);
  WebserverWorkload workload(machine, wc);
  workload.Setup();
  machine.Start();
  ASSERT_TRUE(machine.RunUntil([&workload] { return workload.Done(); }, SecToCycles(600)));
  EXPECT_GT(workload.Result().requests_dropped, 0u);
}

TEST(WebserverWorkloadTest, DropCausesPartitionTotalDrops) {
  MachineConfig mc;
  mc.num_cpus = 1;
  mc.smp = false;
  mc.scheduler = SchedulerKind::kLinux;
  Machine machine(mc);
  WebserverConfig wc = SmallServer();
  wc.workers = 2;
  wc.arrival_rate_per_sec = 20000.0;
  wc.accept_queue_capacity = 16;
  wc.duration = SecToCycles(1);
  wc.shed_deadline = MsToCycles(2);  // Admission control engaged.
  WebserverWorkload workload(machine, wc);
  workload.Setup();
  machine.Start();
  ASSERT_TRUE(machine.RunUntil([&workload] { return workload.Done(); }, SecToCycles(600)));
  const WebserverResult r = workload.Result();
  EXPECT_GT(r.dropped_backlog, 0u);  // Backlog overflow under hopeless load.
  EXPECT_GT(r.dropped_shed, 0u);     // Deadline-blown requests shed.
  EXPECT_EQ(r.requests_dropped, r.dropped_backlog + r.dropped_shed + r.dropped_reset);
  EXPECT_EQ(r.requests_completed, r.requests_arrived - r.requests_dropped);
}

TEST(WebserverWorkloadTest, RetryingArrivalsRecoverTransientOverload) {
  // A short burst over a tiny backlog: without retries the excess is dropped
  // on the spot; with retries the deterministic jittered backoff re-submits
  // and most arrivals eventually land (the pool is fast enough on average).
  auto run = [](bool retry) {
    MachineConfig mc;
    mc.num_cpus = 2;
    mc.smp = true;
    mc.scheduler = SchedulerKind::kElsc;
    Machine machine(mc);
    WebserverConfig wc = SmallServer();
    wc.workers = 8;
    wc.arrival_rate_per_sec = 2000.0;  // ~1.3x the 2-CPU capacity.
    wc.accept_queue_capacity = 8;
    wc.duration = SecToCycles(1);
    wc.retry_arrivals = retry;
    WebserverWorkload workload(machine, wc);
    workload.Setup();
    machine.Start();
    EXPECT_TRUE(machine.RunUntil([&workload] { return workload.Done(); }, SecToCycles(600)));
    return workload.Result();
  };
  const WebserverResult no_retry = run(false);
  const WebserverResult with_retry = run(true);
  EXPECT_EQ(no_retry.retries, 0u);
  EXPECT_GT(with_retry.retries, 0u);
  // Retried arrivals convert immediate drops into (mostly) completions.
  EXPECT_GT(with_retry.requests_completed, no_retry.requests_completed);
  EXPECT_LT(with_retry.dropped_backlog, no_retry.dropped_backlog);
  // Accounting stays exact in both modes.
  EXPECT_EQ(with_retry.requests_completed,
            with_retry.requests_arrived - with_retry.requests_dropped);
  // Abandons are a subset of the accounted drops, not a separate pool.
  EXPECT_LE(with_retry.abandons, with_retry.requests_dropped);
}

TEST(WebserverWorkloadTest, ResultSurfacesTailLatency) {
  MachineConfig mc;
  mc.num_cpus = 2;
  mc.smp = true;
  mc.scheduler = SchedulerKind::kElsc;
  Machine machine(mc);
  WebserverWorkload workload(machine, SmallServer());
  workload.Setup();
  machine.Start();
  ASSERT_TRUE(machine.RunUntil([&workload] { return workload.Done(); }, SecToCycles(60)));
  const WebserverResult r = workload.Result();
  EXPECT_GT(r.latency_p999_us, 0u);
  EXPECT_LE(r.latency_p50_us, r.latency_p99_us);
  EXPECT_LE(r.latency_p99_us, r.latency_p999_us);
  EXPECT_EQ(r.latency_p999_us, workload.latency_histogram().P999());
}

}  // namespace
}  // namespace elsc
