#pragma once

/// \file bench.h
/// \brief One benchmark run, from seeded inputs to the reported metrics.
///
/// A run generates its inputs, sets the program up `kSetups` times and
/// keeps the last stack, drives one workload, and checks every response.
///  - Untraced (`trace` false): one stream of `seconds`, reported as the
///    end-to-end metrics.
///  - Traced: a fixed amount of work, run once untraced and once under the
///    benchmark's spans, then every layer probed from outside (probe.h);
///    reported as the per-layer metrics.  The spans are written to
///    `<work_dir>/trace-<workload>.jsonl`.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "inputs.h"
#include "probe.h"

namespace servebench {

/// Set-ups per run; `setup_s` is their median.
inline constexpr size_t kSetups = 3;

struct RunOptions {
  Workload workload = Workload::kColdMiss;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the snapshot file (removed at exit) and the spans are written.
  std::string work_dir = ".";
  InputSizes sizes;
  /// Calls per layer in the traced run's probe (see probe.h).
  size_t min_layer_samples = kMinProbeSamples;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  /// No response differed from its reference or from `Engine::Query`.
  bool correct = false;
  /// Requests and publishes attempted, and how many of them failed.
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> metrics;

  /// The result line: {"correct": ..., "attempted": ..., "failed": ...,
  /// "metrics": {"<name>": {"value": ..., "unit": "..."}, ...}}.
  std::string ToJson() const;
};

/// \brief Runs the benchmark.  An error means no result: the inputs, a
/// set-up, or the probe failed.  Progress goes to stderr.
wqe::Result<Outcome> RunBenchmark(const RunOptions& options);

}  // namespace servebench
