#pragma once

/// \file stats.h
/// \brief Descriptive statistics used throughout the paper's tables.
///
/// The paper reports min / Q1 / median / Q3 / max summaries (Tables 2 and 3)
/// and simple averages (Figures 5–9); this header centralizes those
/// computations so every table is produced by the same code path.

#include <cstddef>
#include <string>
#include <vector>

namespace wqe {

/// \brief Five-number summary (min, quartiles, max), as in Tables 2 and 3.
struct FiveNumberSummary {
  double min = 0.0;
  double q1 = 0.0;     ///< 25th percentile
  double median = 0.0; ///< 50th percentile
  double q3 = 0.0;     ///< 75th percentile
  double max = 0.0;
  size_t n = 0;

  /// Renders "min q1 median q3 max" with the given precision.
  std::string ToString(int precision = 3) const;
};

/// \brief Computes the five-number summary of `values` (copied and sorted).
/// Empty input yields an all-zero summary with n == 0.
FiveNumberSummary Summarize(std::vector<double> values);

/// \brief Linear-interpolation percentile (R-7, the spreadsheet default) of
/// sorted data. `p` in [0, 1]. Requires non-empty `sorted`.
double PercentileSorted(const std::vector<double>& sorted, double p);

/// \brief Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& values);

/// \brief Pearson correlation of paired samples; 0 when undefined.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

/// \brief Least-squares line fit `y = slope * x + intercept`.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;
};

/// \brief Fits a least-squares line through the paired samples; used for the
/// trend lines of Figures 7a and 9. Requires sizes equal and >= 2.
LinearFit FitLine(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace wqe
