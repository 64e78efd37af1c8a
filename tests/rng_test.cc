// Tests for the deterministic xoshiro256** generator.

#include "src/base/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace elsc {
namespace {

// The reference splitmix64 outputs from state 0. Rng's seeding, every
// DeriveSeed value, the backoff jitter and the federation fault coins rest
// on this one function.
TEST(RngTest, SplitMix64MatchesReferenceVector) {
  uint64_t state = 0;
  EXPECT_EQ(SplitMix64(&state), 0xe220a8397b1dcdafull);
  EXPECT_EQ(SplitMix64(&state), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(state, 2 * 0x9e3779b97f4a7c15ull);
}

TEST(RngTest, SameSeedSameSequence) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(7);
  Rng b(8);
  int differ = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() != b.Next()) {
      ++differ;
    }
  }
  EXPECT_GE(differ, 99);
}

TEST(RngTest, NextBelowStaysInBounds) {
  Rng rng(99);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowOneAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextBelow(1), 0u);
  }
}

TEST(RngTest, NextInRangeInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInHalfOpenUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBoolHonorsEdgeProbabilities) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, NextBoolRoughlyMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(19);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextDouble();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(23);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(29);
  Rng child = parent.Fork();
  // The child stream must not replay the parent's outputs.
  std::set<uint64_t> parent_vals;
  Rng parent_copy(29);
  parent_copy.Next();  // Account for the fork draw.
  for (int i = 0; i < 100; ++i) {
    parent_vals.insert(parent_copy.Next());
  }
  int overlap = 0;
  for (int i = 0; i < 100; ++i) {
    overlap += parent_vals.contains(child.Next()) ? 1 : 0;
  }
  EXPECT_EQ(overlap, 0);
}

TEST(RngTest, ForkIsDeterministic) {
  Rng a(31);
  Rng b(31);
  Rng ca = a.Fork();
  Rng cb = b.Fork();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ca.Next(), cb.Next());
  }
}

}  // namespace
}  // namespace elsc
