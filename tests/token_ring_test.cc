// Tests for the token-ring (lat_ctx-style) context-switch workload.

#include "src/workloads/token_ring.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace elsc {
namespace {

class TokenRingTest : public ::testing::TestWithParam<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(AllSchedulers, TokenRingTest,
                         ::testing::ValuesIn(AllSchedulerKinds()),
                         [](const auto& info) { return SchedulerKindName(info.param); });

TEST_P(TokenRingTest, SingleTokenCompletesExactHops) {
  MachineConfig mc;
  mc.num_cpus = 1;
  mc.smp = false;
  mc.scheduler = GetParam();
  mc.check_invariants = true;
  Machine machine(mc);
  TokenRingConfig rc;
  rc.tasks = 8;
  rc.tokens = 1;
  rc.total_hops = 500;
  TokenRingWorkload ring(machine, rc);
  ring.Setup();
  machine.Start();
  ASSERT_TRUE(machine.RunUntil([&ring] { return ring.Done(); }, SecToCycles(60)));
  const TokenRingResult result = ring.Result();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.hops, 500u);
  EXPECT_GT(result.hops_per_sec, 0.0);
  EXPECT_GT(result.hop_latency_us, 0.0);
}

TEST_P(TokenRingTest, MultipleTokensOnSmp) {
  MachineConfig mc;
  mc.num_cpus = 2;
  mc.smp = true;
  mc.scheduler = GetParam();
  mc.check_invariants = true;
  Machine machine(mc);
  TokenRingConfig rc;
  rc.tasks = 16;
  rc.tokens = 4;
  rc.total_hops = 2000;
  TokenRingWorkload ring(machine, rc);
  ring.Setup();
  machine.Start();
  ASSERT_TRUE(machine.RunUntil([&ring] { return ring.Done(); }, SecToCycles(60)));
  const TokenRingResult result = ring.Result();
  // Each retiring token counts its final hop, so the total lands within
  // [total_hops, total_hops + tokens).
  EXPECT_GE(result.hops, 2000u);
  EXPECT_LT(result.hops, 2000u + 4u);
}

TEST(TokenRingScalingTest, StockHopLatencyGrowsWithRunnableDepth) {
  // The library's O(n)-vs-O(1) story at micro scale: with more concurrent
  // tokens (deeper run queue), the stock scheduler's per-hop latency grows
  // while ELSC's stays near-flat.
  auto latency_for = [](SchedulerKind kind, int tokens) {
    MachineConfig mc;
    mc.num_cpus = 1;
    mc.smp = false;
    mc.scheduler = kind;
    Machine machine(mc);
    TokenRingConfig rc;
    rc.tasks = 64;
    rc.tokens = tokens;
    rc.total_hops = 20000;
    TokenRingWorkload ring(machine, rc);
    ring.Setup();
    machine.Start();
    EXPECT_TRUE(machine.RunUntil([&ring] { return ring.Done(); }, SecToCycles(600)));
    return ring.Result().hop_latency_us;
  };
  const double stock_shallow = latency_for(SchedulerKind::kLinux, 1);
  const double stock_deep = latency_for(SchedulerKind::kLinux, 32);
  const double elsc_shallow = latency_for(SchedulerKind::kElsc, 1);
  const double elsc_deep = latency_for(SchedulerKind::kElsc, 32);
  // Note: with K tokens, K-1 other runnable tasks sit ahead of a woken
  // task, so queueing delay grows wall latency for everyone. The scheduler's
  // own contribution is additive per hop — so the *absolute gap* between the
  // stock and ELSC columns must widen substantially with depth.
  const double shallow_gap = stock_shallow - elsc_shallow;
  const double deep_gap = stock_deep - elsc_deep;
  EXPECT_GT(deep_gap, 5.0 * std::max(shallow_gap, 0.5))
      << "stock " << stock_shallow << "->" << stock_deep << "us, elsc " << elsc_shallow << "->"
      << elsc_deep << "us";
}

}  // namespace
}  // namespace elsc
