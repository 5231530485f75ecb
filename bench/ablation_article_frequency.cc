/// \file ablation_article_frequency.cc
/// \brief E12 — the paper's §4 open problem: is the frequency of an
/// article in the cycles correlated with the goodness of its title as an
/// expansion feature?
///
/// The paper leaves this unmeasured ("Such correlation, if existing,
/// could be exploited"). We measure it: for every non-query article of
/// every query graph, cycle frequency vs the O-gain of adding that
/// article alone.

#include <cstdio>

#include "bench/bench_common.h"
#include "common/macros.h"
#include "common/string_util.h"

using namespace wqe;

int main() {
  const bench::BenchContext& ctx = bench::GetBenchContext();
  auto report = analysis::ComputeArticleFrequencyCorrelation(
      *ctx.bed, ctx.gt, ctx.analyses);
  WQE_CHECK_OK(report.status());

  TablePrinter table("E12 — article cycle-frequency vs expansion goodness");
  table.SetHeader({"metric", "value"});
  table.AddRow({"articles measured", std::to_string(report->num_articles)});
  table.AddRow({"Pearson correlation", FormatDouble(report->pearson, 3)});
  table.AddRow({"trend slope (pp per cycle)",
                FormatDouble(report->trend.slope, 3)});
  table.AddRow({"mean gain, frequent half (pp)",
                FormatDouble(report->mean_gain_frequent, 2)});
  table.AddRow({"mean gain, rare half (pp)",
                FormatDouble(report->mean_gain_rare, 2)});
  table.Print();
  std::printf(
      "\npaper: unmeasured open problem (§4); a positive correlation means "
      "cycle frequency is an exploitable ranking signal.\n");
  return 0;
}
