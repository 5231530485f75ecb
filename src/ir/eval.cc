#include "ir/eval.h"

#include <algorithm>

namespace wqe::ir {

const std::vector<size_t>& PaperRankCutoffs() {
  static const std::vector<size_t>* kCutoffs =
      new std::vector<size_t>{1, 5, 10, 15};
  return *kCutoffs;
}

double PrecisionAtR(const std::vector<ScoredDoc>& results,
                    const RelevantSet& relevant, size_t r) {
  if (r == 0) return 0.0;
  size_t hits = 0;
  size_t upto = std::min(r, results.size());
  for (size_t i = 0; i < upto; ++i) {
    if (relevant.count(results[i].doc)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(r);
}

double AverageTopRPrecision(const std::vector<ScoredDoc>& results,
                            const RelevantSet& relevant) {
  const std::vector<size_t>& cutoffs = PaperRankCutoffs();
  double sum = 0.0;
  for (size_t r : cutoffs) sum += PrecisionAtR(results, relevant, r);
  return sum / static_cast<double>(cutoffs.size());
}

}  // namespace wqe::ir
