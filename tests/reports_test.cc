// Tests for the diagnostic surfaces added around the schedulers: Figure 1
// DebugString renderings, the ps/top-style task table, load averages, and
// table CSV export.

#include <gtest/gtest.h>

#include "src/sched/elsc_scheduler.h"
#include "src/sched/linux_scheduler.h"
#include "src/sched/multiqueue_scheduler.h"
#include "src/smp/machine.h"
#include "src/stats/ps_report.h"
#include "src/stats/table.h"
#include "src/workloads/micro_behaviors.h"
#include "tests/sched_test_util.h"

namespace elsc {
namespace {

TEST(DebugStringTest, LinuxRendersFigure1aList) {
  TaskFactory factory;
  LinuxScheduler sched(CostModel::Zero(), factory.task_list(), SchedulerConfig{1, false});
  // Figure 1a's example: tasks with static goodness 40, 33, 23 on one list
  // (front to back order = reverse insertion order).
  sched.AddToRunQueue(factory.NewTask(3, 20));   // 23.
  sched.AddToRunQueue(factory.NewTask(13, 20));  // 33.
  sched.AddToRunQueue(factory.NewTask(20, 20));  // 40.
  EXPECT_EQ(sched.DebugString(),
            "runqueue(listhead) -> [40] -> [33] -> [23]  (nr_running=3)");
}

TEST(DebugStringTest, ElscRendersFigure1bTable) {
  TaskFactory factory;
  ElscScheduler sched(CostModel::Zero(), factory.task_list(), SchedulerConfig{1, false});
  sched.AddToRunQueue(factory.NewTask(20, 20));  // Static 40 -> list 10.
  sched.AddToRunQueue(factory.NewTask(13, 20));  // Static 33 -> list 8.
  sched.AddToRunQueue(factory.NewTask(2, 20));   // Static 22 -> list 5.
  sched.AddToRunQueue(factory.NewTask(3, 20));   // Static 23 -> list 5.
  const std::string out = sched.DebugString();
  EXPECT_NE(out.find("list[10] <top>: listhead -> [40]"), std::string::npos) << out;
  EXPECT_NE(out.find("list[ 8]: listhead -> [33]"), std::string::npos) << out;
  EXPECT_NE(out.find("list[ 5]: listhead -> [23] -> [22]"), std::string::npos) << out;
  EXPECT_NE(out.find("top=10"), std::string::npos) << out;
}

TEST(DebugStringTest, ElscMarksExhaustedAndRt) {
  TaskFactory factory;
  ElscScheduler sched(CostModel::Zero(), factory.task_list(), SchedulerConfig{1, false});
  sched.AddToRunQueue(factory.NewTask(0, 20));  // Parked, "z" marker.
  Task* rt = factory.NewRealtime(kSchedFifo, 42);
  sched.AddToRunQueue(rt);
  const std::string out = sched.DebugString();
  EXPECT_NE(out.find("[rt42]"), std::string::npos) << out;
  EXPECT_NE(out.find("z]"), std::string::npos) << out;
  EXPECT_NE(out.find("<next_top>"), std::string::npos) << out;
}

TEST(DebugStringTest, MultiQueueRendersPerCpuQueues) {
  TaskFactory factory;
  MultiQueueScheduler sched(CostModel::Zero(), factory.task_list(), SchedulerConfig{2, true});
  Task* a = factory.NewTask(20, 20);
  a->processor = 1;
  sched.AddToRunQueue(a);
  const std::string out = sched.DebugString();
  EXPECT_NE(out.find("cpu0 queue: listhead\n"), std::string::npos) << out;
  EXPECT_NE(out.find("cpu1 queue: listhead -> [40]"), std::string::npos) << out;
  EXPECT_NE(out.find("steals=0"), std::string::npos) << out;
}

TEST(LoadAvgTest, TracksRunnablePopulation) {
  MachineConfig mc;
  mc.num_cpus = 1;
  mc.smp = false;
  mc.scheduler = SchedulerKind::kElsc;
  Machine machine(mc);
  // Four CPU hogs for 60 simulated seconds: the 1-minute load average should
  // climb toward 4.
  std::vector<std::unique_ptr<SpinnerBehavior>> hogs;
  for (int i = 0; i < 4; ++i) {
    hogs.push_back(std::make_unique<SpinnerBehavior>(MsToCycles(5), SecToCycles(15)));
    TaskParams params;
    params.behavior = hogs.back().get();
    machine.CreateTask(params);
  }
  machine.Start();
  machine.RunFor(SecToCycles(30));
  EXPECT_GT(machine.LoadAvg(0), 1.5);
  EXPECT_LE(machine.LoadAvg(0), 4.05);
  // Longer horizons lag behind.
  EXPECT_LT(machine.LoadAvg(2), machine.LoadAvg(0));

  // Work drains (4 x 15 s on one CPU = 60 s): after everything exits plus an
  // idle stretch, the 1-minute average decays.
  machine.RunUntilAllExited(SecToCycles(300));
  const double at_drain = machine.LoadAvg(0);
  machine.RunFor(SecToCycles(120));
  EXPECT_LT(machine.LoadAvg(0), at_drain);
}

TEST(PsReportTest, ShowsLiveTasksAndAccounting) {
  MachineConfig mc;
  mc.num_cpus = 2;
  mc.smp = true;
  mc.scheduler = SchedulerKind::kElsc;
  Machine machine(mc);
  SpinnerBehavior hog(MsToCycles(5), SecToCycles(5));
  InteractiveBehavior editor(UsToCycles(200), MsToCycles(20), 0);
  TaskParams params;
  params.name = "hog";
  params.behavior = &hog;
  machine.CreateTask(params);
  params.name = "editor";
  params.behavior = &editor;
  machine.CreateTask(params);
  machine.Start();
  machine.RunFor(SecToCycles(1));

  const std::string ps = RenderPs(machine);
  EXPECT_NE(ps.find("hog"), std::string::npos);
  EXPECT_NE(ps.find("editor"), std::string::npos);
  EXPECT_NE(ps.find("load average"), std::string::npos);
  EXPECT_NE(ps.find("OTHER"), std::string::npos);

  PsOptions top;
  top.sort_by_cpu = true;
  top.max_rows = 1;
  const std::string first = RenderPs(machine, top);
  // The hog has the most CPU; with max_rows=1 the editor is not shown.
  EXPECT_NE(first.find("hog"), std::string::npos);
  EXPECT_EQ(first.find("editor"), std::string::npos);
}

TEST(PsReportTest, ZombiesHiddenUnlessRequested) {
  MachineConfig mc;
  mc.num_cpus = 1;
  mc.smp = false;
  Machine machine(mc);
  SpinnerBehavior quick(MsToCycles(1), MsToCycles(2));
  TaskParams params;
  params.name = "ephemeral";
  params.behavior = &quick;
  machine.CreateTask(params);
  machine.Start();
  ASSERT_TRUE(machine.RunUntilAllExited(SecToCycles(5)));
  EXPECT_EQ(RenderPs(machine).find("ephemeral"), std::string::npos);
  PsOptions with_zombies;
  with_zombies.include_zombies = true;
  EXPECT_NE(RenderPs(machine, with_zombies).find("ephemeral"), std::string::npos);
}

TEST(TableCsvTest, RendersCsvAndWritesFile) {
  TextTable table({"a", "b"});
  table.AddRow({"1", "x,y"});
  EXPECT_EQ(table.RenderCsv(), "a,b\n1,\"x,y\"\n");
  const std::string path = ::testing::TempDir() + "/elsc_table.csv";
  ASSERT_TRUE(table.WriteCsv(path));
}

}  // namespace
}  // namespace elsc
