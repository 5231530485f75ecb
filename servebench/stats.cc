#include "stats.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/stats.h"

namespace servebench {

double Median(std::vector<double> samples) {
  WQE_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  return wqe::PercentileSorted(samples, 0.5);
}

size_t SamplesBeyond(size_t n, double p) {
  WQE_CHECK(p > 0.0 && p < 1.0);
  const auto basis_points = static_cast<size_t>(std::llround(p * 10000.0));
  return n * (10000 - basis_points) / 10000;
}

std::optional<double> TailPercentile(std::vector<double> samples, double p) {
  if (SamplesBeyond(samples.size(), p) < kMinSamplesBeyond) {
    return std::nullopt;
  }
  std::sort(samples.begin(), samples.end());
  return wqe::PercentileSorted(samples, p);
}

}  // namespace servebench
