#pragma once

/// \file stats.h
/// \brief How the benchmark summarizes a sample: a median, and a tail
/// percentile only when the sample can support it.

#include <cstddef>
#include <optional>
#include <vector>

namespace servebench {

/// A tail percentile is reported only with at least this many samples
/// beyond it; fewer would make it the maximum of a handful of requests.
inline constexpr size_t kMinSamplesBeyond = 10;

/// \brief Median of a non-empty sample (linear interpolation between the
/// two middle values of an even-sized sample).
double Median(std::vector<double> samples);

/// \brief The `p` quantile of `samples` (0 < p < 1, same interpolation as
/// `Median`), or nullopt when fewer than `kMinSamplesBeyond` samples lie
/// beyond it, i.e. when n * (1 - p) < 10.  `p` is resolved to basis
/// points, so p = 0.99 needs n >= 1000 and p = 0.9 needs n >= 100.
std::optional<double> TailPercentile(std::vector<double> samples, double p);

/// \brief Number of samples beyond the `p` quantile of an n-sample: the
/// floor of n * (1 - p), computed in basis points so that the boundary
/// cases are exact.
size_t SamplesBeyond(size_t n, double p);

}  // namespace servebench
