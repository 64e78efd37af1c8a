// Tests for the strict reader of program inputs (src/base/knob.h) and the
// knobs read through it: for each kind of value, a valid value, an empty one
// (the default applies), and exit-2 death tests for a malformed and an
// out-of-range value.

#include "src/base/knob.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/api/scale.h"
#include "src/api/simulation.h"
#include "src/base/watchdog.h"
#include "src/faults/kill_point.h"
#include "src/harness/supervisor.h"
#include "src/sched/factory.h"

namespace elsc {
namespace {

constexpr const char* kKnob = "ELSC_KNOB_TEST";

// Each test sets the knobs it reads and unsets them afterwards.
class KnobTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& name : set_) {
      unsetenv(name.c_str());
    }
  }
  void Set(const char* name, const char* value) {
    ASSERT_EQ(setenv(name, value, 1), 0);
    set_.push_back(name);
  }
  void Set(const char* value) { Set(kKnob, value); }

 private:
  std::vector<std::string> set_;
};

const auto kExit2 = ::testing::ExitedWithCode(2);

TEST_F(KnobTest, IntEnv) {
  EXPECT_EQ(IntEnv(kKnob, 7), 7);
  Set("");
  EXPECT_EQ(IntEnv(kKnob, 7), 7);
  Set("12");
  EXPECT_EQ(IntEnv(kKnob, 7), 12);
  Set("12x");
  EXPECT_EXIT(IntEnv(kKnob, 7), kExit2,
              "bad ELSC_KNOB_TEST value \"12x\": want an integer from 1 to 2147483647");
  Set("0");
  EXPECT_EXIT(IntEnv(kKnob, 7), kExit2, "ELSC_KNOB_TEST value \"0\"");
  Set("2147483648");
  EXPECT_EXIT(IntEnv(kKnob, 7), kExit2, "ELSC_KNOB_TEST value \"2147483648\"");
  // A 64-bit range reaches INT64_MAX and no further.
  Set("9223372036854775807");
  EXPECT_EQ(IntEnv(kKnob, 7, 0, INT64_MAX), INT64_MAX);
  Set("9223372036854775808");
  EXPECT_EXIT(IntEnv(kKnob, 7, 0, INT64_MAX), kExit2,
              "want an integer from 0 to 9223372036854775807");
}

TEST_F(KnobTest, NumberEnv) {
  EXPECT_EQ(NumberEnv(kKnob, 2.5), 2.5);
  Set("");
  EXPECT_EQ(NumberEnv(kKnob, 2.5), 2.5);
  Set("1.5");
  EXPECT_EQ(NumberEnv(kKnob, 2.5), 1.5);
  Set("0");
  EXPECT_EQ(NumberEnv(kKnob, 2.5), 0.0);
  Set("1s");
  EXPECT_EXIT(NumberEnv(kKnob, 2.5), kExit2,
              "bad ELSC_KNOB_TEST value \"1s\": want a number >= 0");
  Set("inf");
  EXPECT_EXIT(NumberEnv(kKnob, 2.5), kExit2, "ELSC_KNOB_TEST value \"inf\"");
  Set("-1");
  EXPECT_EXIT(NumberEnv(kKnob, 2.5), kExit2, "ELSC_KNOB_TEST value \"-1\"");
  // A positive number excludes 0.
  EXPECT_EQ(ParseNumber("rate", "900", /*positive=*/true), 900.0);
  EXPECT_EXIT(ParseNumber("rate", "0", /*positive=*/true), kExit2,
              "bad rate value \"0\": want a number > 0");
}

TEST_F(KnobTest, FlagEnv) {
  EXPECT_TRUE(FlagEnv(kKnob, true));
  Set("");
  EXPECT_FALSE(FlagEnv(kKnob, false));
  Set("1");
  EXPECT_TRUE(FlagEnv(kKnob, false));
  Set("0");
  EXPECT_FALSE(FlagEnv(kKnob, true));
  Set("yes");
  EXPECT_EXIT(FlagEnv(kKnob, true), kExit2, "bad ELSC_KNOB_TEST value \"yes\": want 0 or 1");
  Set("2");
  EXPECT_EXIT(FlagEnv(kKnob, true), kExit2, "ELSC_KNOB_TEST value \"2\"");
}

TEST_F(KnobTest, Lists) {
  EXPECT_EQ(IntList(kKnob, "1,2"), (std::vector<int>{1, 2}));
  Set("");
  EXPECT_EQ(IntList(kKnob, "1,2"), (std::vector<int>{1, 2}));
  EXPECT_EQ(EnvFields(kKnob, "a,b"), (std::vector<std::string>{"a", "b"}));
  Set("4,8");
  EXPECT_EQ(IntList(kKnob, "1,2"), (std::vector<int>{4, 8}));
  EXPECT_EQ(IntList(kKnob, "1,2", 0), (std::vector<int>{4, 8}));
  Set("4,x");
  EXPECT_EXIT(IntList(kKnob, "1,2"), kExit2, "bad ELSC_KNOB_TEST value \"x\"");
  Set("4,0");
  EXPECT_EXIT(IntList(kKnob, "1,2"), kExit2, "bad ELSC_KNOB_TEST value \"0\"");
}

// A list can cap its fields too: percentages end at 100.
TEST_F(KnobTest, ListUpperBound) {
  Set("0,100");
  EXPECT_EQ(IntList(kKnob, "1", 0, 100), (std::vector<int>{0, 100}));
  Set("0,250");
  EXPECT_EXIT(IntList(kKnob, "1", 0, 100), kExit2,
              "bad ELSC_KNOB_TEST value \"250\": want an integer from 0 to 100");
}

TEST_F(KnobTest, StringEnvAndRetiredSpelling) {
  EXPECT_EQ(StringEnv(kKnob), "");
  Set("");
  EXPECT_EQ(StringEnv(kKnob, "default"), "default");
  Set("dir/with spaces");
  EXPECT_EQ(StringEnv(kKnob, "default"), "dir/with spaces");
  // Any knob read under a retired per-bench spelling exits 2.
  Set("ELSC_SCALE_KNOB_TEST", "8");
  EXPECT_EXIT(StringEnv(kKnob), kExit2,
              "ELSC_SCALE_KNOB_TEST is retired; set ELSC_KNOB_TEST instead");
  EXPECT_EXIT(IntEnv(kKnob, 7), kExit2, "ELSC_SCALE_KNOB_TEST is retired");
}

TEST(KnobArgTest, PositionalArguments) {
  char bench[] = "bench";
  char twelve[] = "12";
  char ten[] = "ten";
  char zero[] = "0";
  char* argv[] = {bench, twelve, ten, zero};
  EXPECT_EQ(IntArg(4, argv, 1, "rooms", 10, 1), 12);
  EXPECT_EQ(IntArg(1, argv, 1, "rooms", 10, 1), 10);  // Absent: the default.
  EXPECT_EQ(ArgName(2, "seed"), "argument 2 (seed)");
  EXPECT_EXIT(IntArg(4, argv, 2, "rooms", 10, 1), ::testing::ExitedWithCode(2),
              "bad argument 2 .rooms. value \"ten\"");
  EXPECT_EXIT(IntArg(4, argv, 3, "rooms", 10, 1), ::testing::ExitedWithCode(2),
              "bad argument 3 .rooms. value \"0\"");
  EXPECT_EQ(IntArg(4, argv, 3, "seed", 42, 0, INT64_MAX), 0);
}

// The two label sets: one lookup each, which reports failure.
TEST(KnobLabelTest, SchedulerNamesAndKernelLabels) {
  SchedulerKind kind = SchedulerKind::kElsc;
  for (const char* name : {"linux", "reg", "stock", "current"}) {
    ASSERT_TRUE(ParseSchedulerKind(name, &kind)) << name;
    EXPECT_EQ(kind, SchedulerKind::kLinux);
  }
  ASSERT_TRUE(ParseSchedulerKind("mq", &kind));
  EXPECT_EQ(kind, SchedulerKind::kMultiQueue);
  EXPECT_FALSE(ParseSchedulerKind("foo", &kind));
  EXPECT_FALSE(ParseSchedulerKind("ELSC", &kind));

  KernelConfig kernel = KernelConfig::kUp;
  ASSERT_TRUE(ParseKernelConfig("4p", &kernel));
  EXPECT_EQ(kernel, KernelConfig::kSmp4);
  ASSERT_TRUE(ParseKernelConfig("Up", &kernel));
  EXPECT_EQ(kernel, KernelConfig::kUp);
  EXPECT_FALSE(ParseKernelConfig("3P", &kernel));
  EXPECT_FALSE(ParseKernelConfig("", &kernel));
}

TEST_F(KnobTest, SupervisorKnobs) {
  const SupervisorOptions defaults = SupervisorOptions::FromEnv();
  EXPECT_EQ(defaults.cell_timeout_sec, 0.0);
  EXPECT_EQ(defaults.max_retries, 2);
  EXPECT_EQ(defaults.inject_spec, "");
  Set("ELSC_CELL_TIMEOUT_MS", "1.5");
  Set("ELSC_CELL_RETRIES", "0");
  Set("ELSC_SUPERVISE_INJECT", "timeout@2:once");
  const SupervisorOptions options = SupervisorOptions::FromEnv();
  EXPECT_EQ(options.cell_timeout_sec, 0.0015);
  EXPECT_EQ(CellTimeoutSec(), 0.0015);
  EXPECT_EQ(options.max_retries, 0);
  EXPECT_EQ(options.inject_spec, "timeout@2:once");
  for (const char* bad :
       {"crsh@1", "crash@x", "timeout@1:onec", "crash@", "crash", "@1", "crash@-1"}) {
    Set("ELSC_SUPERVISE_INJECT", bad);
    EXPECT_EXIT(SupervisorOptions::FromEnv(), kExit2,
                "bad ELSC_SUPERVISE_INJECT value .*want <crash.violate.timeout>@<index>")
        << bad;
  }
  Set("ELSC_SUPERVISE_INJECT", "crash@99999999999999999999");
  EXPECT_EXIT(SupervisorOptions::FromEnv(), kExit2,
              "bad ELSC_SUPERVISE_INJECT value \"99999999999999999999\"");
  Set("ELSC_SUPERVISE_INJECT", "");
  Set("ELSC_CELL_RETRIES", "-1");
  EXPECT_EXIT(SupervisorOptions::FromEnv(), kExit2, "bad ELSC_CELL_RETRIES value \"-1\"");
  Set("ELSC_CELL_TIMEOUT_MS", "1s");
  EXPECT_EXIT(CellTimeoutSec(), kExit2, "bad ELSC_CELL_TIMEOUT_MS value \"1s\"");
}

// "timeout@2:once" read from the environment fails cell 2's first attempt
// only; the retry completes it.
TEST_F(KnobTest, InjectSpecFromEnvironmentHitsItsCell) {
  Set("ELSC_SUPERVISE_INJECT", "timeout@2:once");
  const SupervisedRun<int> run = RunSupervised(
      SupervisorOptions::FromEnv(), 4, [](size_t i) { return static_cast<int>(i); }, {}, 1);
  EXPECT_TRUE(run.AllOk());
  EXPECT_EQ(run.stats.timeouts, 1u);
  EXPECT_EQ(run.outcomes[2].attempts, 2);
  EXPECT_EQ(run.outcomes[1].attempts, 1);
}

TEST_F(KnobTest, CheckpointAndKillKnobs) {
  const ScaleCheckpointOptions defaults = ScaleCheckpointOptions::FromEnv();
  EXPECT_FALSE(defaults.armed());
  EXPECT_EQ(defaults.every, 16u);
  EXPECT_EQ(defaults.keep, 2);
  EXPECT_EQ(ScaleKillWindow(), 0u);
  Set("ELSC_SCALE_CKPT", "ck");
  Set("ELSC_SCALE_CKPT_EVERY", "0");
  Set("ELSC_SCALE_CKPT_KEEP", "3");
  Set("ELSC_SCALE_INJECT_KILL", "5");
  const ScaleCheckpointOptions opts = ScaleCheckpointOptions::FromEnv();
  EXPECT_EQ(opts.path, "ck");
  EXPECT_EQ(opts.every, 0u);
  EXPECT_EQ(opts.keep, 3);
  EXPECT_EQ(ScaleKillWindow(), 5u);
  Set("ELSC_SCALE_CKPT_EVERY", "-1");
  EXPECT_EXIT(ScaleCheckpointOptions::FromEnv(), kExit2,
              "bad ELSC_SCALE_CKPT_EVERY value \"-1\"");
  Set("ELSC_SCALE_CKPT_EVERY", "two");
  EXPECT_EXIT(ScaleCheckpointOptions::FromEnv(), kExit2,
              "bad ELSC_SCALE_CKPT_EVERY value \"two\"");
  Set("ELSC_SCALE_CKPT_EVERY", "2");
  Set("ELSC_SCALE_CKPT_KEEP", "0");
  EXPECT_EXIT(ScaleCheckpointOptions::FromEnv(), kExit2,
              "bad ELSC_SCALE_CKPT_KEEP value \"0\"");
  // Windows count from 1, so 0 is out of range.
  Set("ELSC_SCALE_INJECT_KILL", "0");
  EXPECT_EXIT(ScaleKillWindow(), kExit2, "bad ELSC_SCALE_INJECT_KILL value \"0\"");
  Set("ELSC_SCALE_INJECT_KILL", "five");
  EXPECT_EXIT(ScaleKillWindow(), kExit2, "bad ELSC_SCALE_INJECT_KILL value \"five\"");
}

}  // namespace
}  // namespace elsc
