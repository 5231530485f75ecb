#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/macros.h"
#include "common/string_util.h"

namespace wqe {

std::string FiveNumberSummary::ToString(int precision) const {
  std::ostringstream ss;
  ss << FormatDouble(min, precision) << " " << FormatDouble(q1, precision)
     << " " << FormatDouble(median, precision) << " "
     << FormatDouble(q3, precision) << " " << FormatDouble(max, precision);
  return ss.str();
}

double PercentileSorted(const std::vector<double>& sorted, double p) {
  WQE_CHECK(!sorted.empty());
  if (sorted.size() == 1) return sorted[0];
  double rank = p * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = static_cast<size_t>(std::ceil(rank));
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

FiveNumberSummary Summarize(std::vector<double> values) {
  FiveNumberSummary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  s.q1 = PercentileSorted(values, 0.25);
  s.median = PercentileSorted(values, 0.50);
  s.q3 = PercentileSorted(values, 0.75);
  return s;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  double mx = Mean(x), my = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

LinearFit FitLine(const std::vector<double>& x, const std::vector<double>& y) {
  WQE_CHECK(x.size() == y.size());
  WQE_CHECK(x.size() >= 2);
  LinearFit fit;
  double mx = Mean(x), my = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx <= 0.0) {
    fit.slope = 0.0;
    fit.intercept = my;
    fit.r2 = 0.0;
    return fit;
  }
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r2 = (syy <= 0.0) ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

}  // namespace wqe
