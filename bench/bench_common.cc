#include "bench/bench_common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace wqe::bench {

namespace {

uint32_t EnvOr(const char* name, uint32_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  long parsed = std::atol(value);
  return parsed > 0 ? static_cast<uint32_t>(parsed) : fallback;
}

}  // namespace

api::TestbedOptions BenchTestbedOptions() {
  api::TestbedOptions options;
  options.wiki.num_domains = EnvOr("WQE_BENCH_DOMAINS", 50);
  options.wiki.seed = EnvOr("WQE_BENCH_SEED", 42);
  options.track.num_topics = EnvOr("WQE_BENCH_TOPICS", 50);
  options.track.seed = options.wiki.seed + 7;
  return options;
}

void AddEvaluationRow(const api::SystemEvaluation& eval,
                      const std::string& label, TablePrinter* table) {
  table->AddRow({label.empty() ? eval.name : label,
                 FormatDouble(eval.mean_precision[0], 3),
                 FormatDouble(eval.mean_precision[1], 3),
                 FormatDouble(eval.mean_precision[2], 3),
                 FormatDouble(eval.mean_precision[3], 3),
                 FormatDouble(eval.mean_o, 3),
                 FormatDouble(eval.mean_features, 1)});
}

void BenchJsonWriter::Add(const std::string& name, const std::string& metric,
                          double value, const std::string& config) {
  WQE_CHECK(std::isfinite(value));
  records_.push_back(Record{name, metric, value, config});
}

void BenchJsonWriter::Write() const {
  const std::string path = "BENCH_" + bench_ + ".json";
  std::ostringstream out;
  out << "{\"bench\": \"" << bench_ << "\", \"results\": [";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (i > 0) out << ",";
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", r.value);
    out << "\n  {\"name\": \"" << r.name << "\", \"metric\": \"" << r.metric
        << "\", \"value\": " << value << ", \"config\": \"" << r.config
        << "\"}";
  }
  out << "\n]}\n";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  WQE_CHECK(file.good());
  file << out.str();
  WQE_CHECK(file.good());
  WQE_LOG(Info) << "bench results written to " << path;
}

std::vector<uint32_t> ZipfianRequestMix(size_t count, uint32_t num_distinct,
                                        double s, uint64_t seed) {
  WQE_CHECK(num_distinct > 0);
  // Explicit rank weights 1/(r+1)^s drawn by weighted choice: exact for
  // the small alphabets load mixes use (topics, not articles), and keeps
  // a long tail — rank 0 of a 50-topic s=1 mix gets ~22%, not ~99%.
  std::vector<double> weights(num_distinct);
  for (uint32_t r = 0; r < num_distinct; ++r) {
    weights[r] = 1.0 / std::pow(static_cast<double>(r) + 1.0, s);
  }
  Rng rng(seed);
  std::vector<uint32_t> mix;
  mix.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    mix.push_back(static_cast<uint32_t>(rng.WeightedChoice(weights)));
  }
  return mix;
}

const api::Testbed& GetBenchTestbed() {
  static const api::Testbed* kTestbed = [] {
    Stopwatch watch;
    auto bed = api::Testbed::Build(BenchTestbedOptions());
    WQE_CHECK_OK(bed.status());
    WQE_LOG(Info) << "bench testbed: engine built in "
                  << watch.ElapsedSeconds() << "s";
    return bed->release();
  }();
  return *kTestbed;
}

const BenchContext& GetBenchContext() {
  static const BenchContext* kContext = [] {
    auto* ctx = new BenchContext();
    ctx->bed = &GetBenchTestbed();

    Stopwatch watch;
    groundtruth::XqOptimizerOptions xq;
    xq.restarts = 1;
    xq.enable_swap = false;  // ADD/REMOVE climbs well; SWAP is O(|A'|·|C|)
    groundtruth::GroundTruthBuilder builder(ctx->bed, xq);
    auto gt = builder.Build();
    WQE_CHECK_OK(gt.status());
    ctx->gt = std::move(*gt);
    WQE_LOG(Info) << "bench context: ground truth built in "
                  << watch.ElapsedSeconds() << "s";

    watch.Reset();
    // Analysis parallelism (the per-topic fan-out); results are
    // bit-identical at any setting, so this only moves wall-clock.
    analysis::AnalyzerOptions analyzer_options;
    analyzer_options.num_threads = EnvOr("WQE_BENCH_THREADS", 1);
    analysis::QueryGraphAnalyzer analyzer(ctx->bed, &ctx->gt,
                                          analyzer_options);
    auto analyses = analyzer.AnalyzeAll();
    WQE_CHECK_OK(analyses.status());
    ctx->analyses = std::move(*analyses);
    WQE_LOG(Info) << "bench context: query graphs analyzed in "
                  << watch.ElapsedSeconds() << "s";
    return ctx;
  }();
  return *kContext;
}

}  // namespace wqe::bench
