/// \file serving_digest.cc
/// \brief A golden digest of the serving answers.
///
/// For every built-in strategy (`Engine::registry().Names()`) and every
/// topic of the bench testbed, runs `Engine::Query` and prints one line:
/// the strategy, the topic index, the feature count, and a `Hasher`
/// digest of the expansion titles, the ranked doc ids and the raw bits
/// of every score.  The bits are taken with `memcpy`, not through
/// `Hasher::Add(double)`, which folds -0.0 into +0.0.  A last line
/// prints the sums of the `wqe.expansion.cycles_visited` and
/// `wqe.expansion.cycles_accepted` histograms over that pass.
///
/// Then the same requests go through a 2-worker `serve::Server`, and the
/// bench aborts unless every response digests exactly like its
/// sequential twin.
///
/// stdout is deterministic (seeded generators, no timings), so
/// `./ci.sh bench` diffs it against `bench/golden/serving_digest.*.txt`
/// like the paper benches.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/hash.h"
#include "common/macros.h"
#include "obs/metrics.h"
#include "serve/server.h"

using namespace wqe;

namespace {

uint64_t Digest(const api::QueryResponse& response) {
  Hasher hasher;
  hasher.Add(static_cast<uint64_t>(response.expansion.titles.size()));
  for (const std::string& title : response.expansion.titles) {
    hasher.Add(std::string_view(title));
  }
  hasher.Add(static_cast<uint64_t>(response.docs.size()));
  for (const ir::ScoredDoc& doc : response.docs) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(doc.score));
    std::memcpy(&bits, &doc.score, sizeof(bits));
    hasher.Add(static_cast<uint64_t>(doc.doc)).Add(bits);
  }
  return hasher.hash();
}

std::string Line(const std::string& strategy, size_t topic,
                 const api::QueryResponse& response) {
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, Digest(response));
  return strategy + " " + std::to_string(topic) + " " +
         std::to_string(response.expansion.feature_articles.size()) + " " +
         digest;
}

double HistogramSum(const char* name) {
  return obs::MetricsRegistry::Global().GetHistogram(name)->snapshot().sum;
}

}  // namespace

int main() {
  const api::Testbed& bed = bench::GetBenchTestbed();
  const api::Engine& engine = bed.engine();

  std::vector<api::QueryRequest> requests;
  std::vector<std::string> lines;
  const double visited_before = HistogramSum("wqe.expansion.cycles_visited");
  const double accepted_before =
      HistogramSum("wqe.expansion.cycles_accepted");
  for (const std::string& strategy : engine.registry().Names()) {
    for (size_t topic = 0; topic < bed.num_topics(); ++topic) {
      api::QueryRequest request;
      request.keywords = bed.topic(topic).keywords;
      request.expander = strategy;
      auto response = engine.Query(request);
      WQE_CHECK_OK(response.status());
      lines.push_back(Line(strategy, topic, *response));
      std::printf("%s\n", lines.back().c_str());
      requests.push_back(std::move(request));
    }
  }
  std::printf("cycles_visited %.0f cycles_accepted %.0f\n",
              HistogramSum("wqe.expansion.cycles_visited") - visited_before,
              HistogramSum("wqe.expansion.cycles_accepted") - accepted_before);

  // The same requests, served concurrently: each answer must equal its
  // sequential twin bit for bit.
  serve::ServerOptions options;
  options.num_threads = 2;
  serve::Server server(engine, options);
  std::vector<std::future<Result<api::QueryResponse>>> inflight;
  inflight.reserve(requests.size());
  for (const api::QueryRequest& request : requests) {
    inflight.push_back(server.Submit(request));
  }
  for (size_t i = 0; i < inflight.size(); ++i) {
    Result<api::QueryResponse> response = inflight[i].get();
    WQE_CHECK_OK(response.status());
    WQE_CHECK(Line(requests[i].expander, i % bed.num_topics(), *response) ==
              lines[i]);
  }
  return 0;
}
