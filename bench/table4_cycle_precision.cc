/// \file table4_cycle_precision.cc
/// \brief E3 — regenerates Table 4: average precision of expansion with
/// the articles found in cycles of each length configuration.
///
/// Paper reference:
///   2         0.826 0.539 0.539 0.552
///   3         0.833 0.578 0.519 0.513
///   4         0.703 0.589 0.541 0.494
///   5         0.788 0.624 0.588 0.547
///   2&3       0.944 0.656 0.583 0.621
///   2&3&4     0.944 0.667 0.594 0.629
///   2&3&4&5   0.944 0.667 0.622 0.658

#include "bench/bench_common.h"
#include "common/macros.h"
#include "common/string_util.h"

using namespace wqe;

int main() {
  const bench::BenchContext& ctx = bench::GetBenchContext();
  auto rows = analysis::ComputeTable4(*ctx.bed, ctx.gt, ctx.analyses);
  WQE_CHECK_OK(rows.status());

  static const char* kPaper[] = {
      "0.826 0.539 0.539 0.552", "0.833 0.578 0.519 0.513",
      "0.703 0.589 0.541 0.494", "0.788 0.624 0.588 0.547",
      "0.944 0.656 0.583 0.621", "0.944 0.667 0.594 0.629",
      "0.944 0.667 0.622 0.658"};

  TablePrinter table(
      "Table 4 — precision by cycle-length configuration of the expansion "
      "features");
  table.SetHeader({"cycle sizes", "top-1", "top-5", "top-10", "top-15",
                   "paper (t1 t5 t10 t15)"});
  for (size_t i = 0; i < rows->size(); ++i) {
    const auto& row = (*rows)[i];
    std::string label;
    for (size_t k = 0; k < row.lengths.size(); ++k) {
      if (k > 0) label += " & ";
      label += std::to_string(row.lengths[k]);
    }
    table.AddRow({label, FormatDouble(row.precision[0], 3),
                  FormatDouble(row.precision[1], 3),
                  FormatDouble(row.precision[2], 3),
                  FormatDouble(row.precision[3], 3), kPaper[i]});
  }
  table.Print();
  return 0;
}
