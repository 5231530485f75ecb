#pragma once

/// \file bench_common.h
/// \brief Shared experiment context for the paper-reproduction benches.
///
/// Every table/figure bench builds the same full-size `api::Testbed` (50
/// topics, as in ImageCLEF 2011), constructs the §2 ground truth, and runs
/// the §3 analysis once on it; both are cached within a binary, so a bench
/// that also serves expansion systems builds the experiment once.
///
/// Environment overrides (useful for quick runs):
///   WQE_BENCH_TOPICS   — number of topics (default 50)
///   WQE_BENCH_DOMAINS  — number of KB domains (default 50)
///   WQE_BENCH_SEED     — generator seed (default 42)
///   WQE_BENCH_THREADS  — analysis threads for the §3 topic fan-out
///                        (default 1; output identical at any setting)

#include <string>
#include <vector>

#include "analysis/paper_report.h"
#include "analysis/query_graph_analysis.h"
#include "api/testbed.h"
#include "common/table_printer.h"
#include "groundtruth/ground_truth.h"

namespace wqe::bench {

/// \brief Materialized experiment state shared by the benches.
struct BenchContext {
  const api::Testbed* bed = nullptr;  ///< `&GetBenchTestbed()`
  groundtruth::GroundTruth gt;
  std::vector<analysis::TopicAnalysis> analyses;
};

/// \brief Builds (once) and returns the shared context. Aborts on failure —
/// benches have no meaningful degraded mode.
const BenchContext& GetBenchContext();

/// \brief The experiment (engine + evaluation topics), built once per
/// binary from `BenchTestbedOptions()`.  Expansion-system benches serve
/// through it; `GetBenchContext` analyzes it.
const api::Testbed& GetBenchTestbed();

/// \brief The testbed options the experiment is built with (after env
/// overrides); exposed so perf benches can build scaled variants.
api::TestbedOptions BenchTestbedOptions();

/// \brief Appends a system/variant row in the shared E10/E11 table format
/// (P@1/5/10/15, O, avg features).  Empty `label` uses the evaluation's
/// system name.
void AddEvaluationRow(const api::SystemEvaluation& eval,
                      const std::string& label, TablePrinter* table);

/// \brief Machine-readable perf-bench output: collects (name, metric,
/// value, config) records and writes them as `BENCH_<bench>.json` in the
/// current directory, alongside whatever table the bench prints.  The CI
/// bench-smoke job (and any cross-PR perf tracking) parses these files —
/// one JSON object with a `results` array:
///
///   {"bench": "perf_x", "results": [
///     {"name": "...", "metric": "total_ms", "value": 12.5, "config": "..."}]}
///
/// Strings must be ASCII without quotes/backslashes (names are code
/// constants); values are finite doubles.
class BenchJsonWriter {
 public:
  /// \brief `bench` names the output file `BENCH_<bench>.json`.
  explicit BenchJsonWriter(std::string bench) : bench_(std::move(bench)) {}

  void Add(const std::string& name, const std::string& metric, double value,
           const std::string& config);

  /// \brief Writes the file; aborts on IO failure (benches have no
  /// degraded mode).  Call once, at the end of main.
  void Write() const;

 private:
  struct Record {
    std::string name;
    std::string metric;
    double value;
    std::string config;
  };
  std::string bench_;
  std::vector<Record> records_;
};

/// \brief A deterministic Zipfian request mix: `count` draws from
/// `[0, num_distinct)` with rank-frequency exponent `s` (rank 0 most
/// popular), seeded via `common/rng` so load tests replay bit-identically.
/// The serving bench (`perf_parallel_serving`) uses this as its query
/// stream; the skew is what makes an expansion cache pay off.
std::vector<uint32_t> ZipfianRequestMix(size_t count, uint32_t num_distinct,
                                        double s, uint64_t seed);

}  // namespace wqe::bench
