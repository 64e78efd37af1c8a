// Figure 3 reproduction: VolanoMark message throughput versus room count for
// the stock ("reg") and ELSC schedulers. The paper shows two charts: UP and
// 1P series, and a 4P series.
//
// The paper's claim: ELSC throughput stays flat as rooms (threads) grow;
// the stock scheduler's declines — by 24% from 5 to 20 rooms on the
// uniprocessor, and far more on the 4-way SMP.
//
//   usage: fig3_throughput [max_rooms]

#include <cstdio>

#include "bench/experiment_util.h"
#include "src/stats/ascii_chart.h"
#include "src/stats/table.h"

namespace {

void RunChart(const std::string& title, const std::vector<elsc::KernelConfig>& kernels, int max_rooms) {
  std::printf("\n-- %s --\n", title.c_str());
  std::vector<std::string> headers = {"rooms"};
  for (const auto kernel : kernels) {
    for (const auto sched : elsc::PaperSchedulers()) {
      headers.push_back(std::string(elsc::PaperLabel(sched)) + "-" +
                        KernelConfigLabel(kernel));
    }
  }
  elsc::TextTable table(headers);
  std::vector<std::string> x_labels;
  std::vector<elsc::Series> series;
  for (size_t i = 1; i < headers.size(); ++i) {
    series.push_back({headers[i], {}});
  }
  // The whole chart is one matrix of (rooms x kernel x scheduler) cells,
  // each replicated ELSC_BENCH_REPLICATES times under derived seeds.
  std::vector<elsc::VolanoCellSpec> cells;
  for (const int rooms : elsc::PaperRoomCounts()) {
    if (rooms > max_rooms) {
      continue;
    }
    for (const auto kernel : kernels) {
      for (const auto sched : elsc::PaperSchedulers()) {
        cells.push_back({kernel, sched, rooms, 1});
      }
    }
  }
  const std::vector<elsc::VolanoCellSummary> summaries = RunVolanoCellSummaries(cells);
  size_t cell = 0;
  for (const int rooms : elsc::PaperRoomCounts()) {
    if (rooms > max_rooms) {
      continue;
    }
    x_labels.push_back(std::to_string(rooms));
    std::vector<std::string> row = {std::to_string(rooms)};
    size_t column = 0;
    for (size_t k = 0; k < kernels.size(); ++k) {
      for (size_t s = 0; s < elsc::PaperSchedulers().size(); ++s) {
        const elsc::VolanoCellSummary& summary = summaries[cell++];
        row.push_back(summary.completed ? elsc::FmtMeanSd(summary.throughput, 0) : "FAIL");
        series[column++].y.push_back(summary.throughput.mean());
      }
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("\n%s", RenderSeriesChart(x_labels, series).c_str());
  elsc::MaybeExportCsv("fig3_" + std::string(1, title[0]), table);
}

}  // namespace

int main(int argc, char** argv) {
  const int max_rooms = elsc::IntArg(argc, argv, 1, "max_rooms", 20, 1);

  elsc::PrintBenchHeader("Figure 3: VolanoMark Message Throughput",
                         "messages/second vs. rooms (20 users x 100 messages per room)");

  RunChart("UP and 1P Message Throughput",
           {elsc::KernelConfig::kUp, elsc::KernelConfig::kSmp1}, max_rooms);
  RunChart("4 Processor Message Throughput", {elsc::KernelConfig::kSmp4}, max_rooms);

  std::printf(
      "\nExpected shape (paper): elsc series stay essentially flat with room\n"
      "count; reg series decline steadily (about -24%% from 5 to 20 rooms on the\n"
      "uniprocessor) and collapse hardest on the 4-processor configuration.\n");
  return elsc::BenchExit(0);
}
