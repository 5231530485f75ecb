/// \file api_test.cc
/// \brief Tests for the `api::Engine` facade and its expander registry:
/// name-based strategy lookup, per-call overrides, batched serving, the
/// fallback behavior of unlinkable requests, and retrieval against the
/// map-based ranking oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>

#include "api/engine.h"
#include "api/evaluation.h"
#include "api/testbed.h"
#include "expansion/cycle_expander.h"
#include "obs/metrics.h"
#include "oracle/inverted_index.h"
#include "oracle/scorer.h"
#include "wiki/synthetic.h"

namespace wqe::api {
namespace {

TestbedOptions SmallBedOptions() {
  TestbedOptions options;
  options.wiki.num_domains = 12;
  options.track.num_topics = 6;
  options.track.background_docs = 150;
  return options;
}

const Testbed& SmallBed() {
  static const Testbed* kBed = [] {
    auto result = Testbed::Build(SmallBedOptions());
    EXPECT_TRUE(result.ok()) << result.status();
    return result->release();
  }();
  return *kBed;
}

// ------------------------------------------------------------- registry

TEST(ExpanderRegistryTest, BuiltinsAreRegistered) {
  const Engine& engine = SmallBed().engine();
  std::vector<std::string> names = engine.registry().Names();
  EXPECT_EQ(names, (std::vector<std::string>{"community", "cycle",
                                             "direct-link", "no-expansion"}));
  EXPECT_TRUE(engine.registry().Contains("adjacency"));  // alias
  EXPECT_TRUE(engine.registry().Contains("category"));   // alias
  EXPECT_EQ(engine.registry().Resolve("adjacency"), "direct-link");
  EXPECT_EQ(engine.registry().Resolve("category"), "community");
  EXPECT_EQ(engine.registry().Resolve("cycle"), "cycle");
  EXPECT_FALSE(engine.registry().Contains("warp-drive"));
  EXPECT_EQ(engine.registry().Resolve("warp-drive"), "warp-drive");
}

TEST(ExpanderRegistryTest, AllBuiltinsConstructByName) {
  const Testbed& bed = SmallBed();
  const ExpanderRegistry& registry = bed.engine().registry();
  for (const std::string& name : registry.Names()) {
    auto expander = registry.Create(name, bed.kb(), bed.linker());
    ASSERT_TRUE(expander.ok()) << name << ": " << expander.status();
    ASSERT_NE(*expander, nullptr);
  }
}

TEST(ExpanderRegistryTest, UnknownNameIsNotFound) {
  const Testbed& bed = SmallBed();
  auto result =
      bed.engine().registry().Create("warp-drive", bed.kb(), bed.linker());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
  // The error names the available strategies.
  EXPECT_NE(result.status().message().find(
                "unknown expander 'warp-drive'; registered: community, "
                "cycle, direct-link, no-expansion"),
            std::string::npos)
      << result.status();
}

TEST(ExpanderRegistryTest, InvalidOverridesAreRejected) {
  const Testbed& bed = SmallBed();
  const ExpanderRegistry& registry = bed.engine().registry();
  ExpanderOverrides zero_features;
  zero_features.max_features = 0;
  EXPECT_TRUE(registry.Create("cycle", bed.kb(), bed.linker(), zero_features)
                  .status()
                  .IsInvalidArgument());
  ExpanderOverrides bad_ratio;
  bad_ratio.min_category_ratio = 1.5;
  EXPECT_TRUE(registry.Create("cycle", bed.kb(), bed.linker(), bad_ratio)
                  .status()
                  .IsInvalidArgument());
  ExpanderOverrides inverted;
  inverted.min_cycle_length = 5;
  inverted.max_cycle_length = 3;
  EXPECT_TRUE(registry.Create("cycle", bed.kb(), bed.linker(), inverted)
                  .status()
                  .IsInvalidArgument());
  ExpanderOverrides inverted_window;  // would silently reject every cycle
  inverted_window.min_category_ratio = 0.6;
  inverted_window.max_category_ratio = 0.2;
  EXPECT_TRUE(registry.Create("cycle", bed.kb(), bed.linker(), inverted_window)
                  .status()
                  .IsInvalidArgument());
  ExpanderOverrides too_long;  // past the per-length tallies
  too_long.max_cycle_length = 6;
  EXPECT_TRUE(registry.Create("cycle", bed.kb(), bed.linker(), too_long)
                  .status()
                  .IsInvalidArgument());
  ExpanderOverrides huge_ball;  // an n² pair table past 4 MiB
  huge_ball.max_neighborhood = 2049;
  EXPECT_TRUE(registry.Create("cycle", bed.kb(), bed.linker(), huge_ball)
                  .status()
                  .IsInvalidArgument());
  ExpanderOverrides at_limits;
  at_limits.max_cycle_length = 5;
  at_limits.max_neighborhood = 2048;
  EXPECT_TRUE(
      registry.Create("cycle", bed.kb(), bed.linker(), at_limits).ok());

  // Non-finite floating overrides: NaN in any of the five, and ±inf in
  // each (a NaN score breaks the feature sort's ordering, and a NaN key
  // never finds its own cache entry).  Every strategy rejects them, even
  // the ones that ignore the field.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  using Field = std::optional<double> ExpanderOverrides::*;
  for (Field field :
       {&ExpanderOverrides::min_density, &ExpanderOverrides::min_category_ratio,
        &ExpanderOverrides::max_category_ratio,
        &ExpanderOverrides::two_cycle_weight,
        &ExpanderOverrides::length_decay}) {
    for (double value : {kNaN, kInf, -kInf}) {
      ExpanderOverrides non_finite;
      non_finite.*field = value;
      for (const std::string& name : registry.Names()) {
        EXPECT_TRUE(registry.Create(name, bed.kb(), bed.linker(), non_finite)
                        .status()
                        .IsInvalidArgument())
            << name << " accepted " << value;
      }
    }
  }
  ExpanderOverrides signed_zero;  // finite, and >= 0 as a number
  signed_zero.min_density = -0.0;
  EXPECT_TRUE(
      registry.Create("cycle", bed.kb(), bed.linker(), signed_zero).ok());
}

// --------------------------------------------------------------- engine

TEST(EngineTest, QueryBeforeFinalizeFails) {
  auto engine = Engine::Build(wiki::KnowledgeBase());
  ASSERT_TRUE(engine.ok());
  QueryRequest request;
  request.keywords = "anything";
  EXPECT_TRUE((*engine)->Query(request).status().IsInvalidArgument());
}

TEST(EngineTest, UnknownExpanderInRequestIsNotFound) {
  const Engine& engine = SmallBed().engine();
  QueryRequest request;
  request.keywords = SmallBed().topic(0).keywords;
  request.expander = "warp-drive";
  EXPECT_TRUE(engine.Query(request).status().IsNotFound());
}

TEST(EngineTest, EmptyExpanderUsesDefault) {
  const Engine& engine = SmallBed().engine();
  QueryRequest request;
  request.keywords = SmallBed().topic(0).keywords;
  auto response = engine.Query(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->expansion.expander, "cycle");
  EXPECT_FALSE(response->docs.empty());
}

TEST(EngineTest, AliasResolvesToCanonicalStrategy) {
  const Engine& engine = SmallBed().engine();
  QueryRequest request;
  request.keywords = SmallBed().topic(0).keywords;
  request.expander = "adjacency";
  auto response = engine.Query(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->expansion.expander, "direct-link");
}

TEST(EngineTest, PerCallOverridesApply) {
  const Engine& engine = SmallBed().engine();
  QueryRequest base;
  base.keywords = SmallBed().topic(0).keywords;
  base.expander = "cycle";
  auto unlimited = engine.Query(base);
  ASSERT_TRUE(unlimited.ok());
  ASSERT_GT(unlimited->expansion.feature_articles.size(), 1u);

  QueryRequest capped = base;
  capped.overrides.max_features = 1;
  auto one = engine.Query(capped);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->expansion.feature_articles.size(), 1u);
  // The overridden call must not disturb subsequent default calls.
  auto again = engine.Query(base);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->expansion.feature_articles,
            unlimited->expansion.feature_articles);
}

TEST(EngineTest, UnlinkableKeywordsFallBackToRawQuery) {
  const Engine& engine = SmallBed().engine();
  QueryRequest request;
  request.keywords = "zzz qqq www";
  request.expander = "cycle";
  auto response = engine.Query(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->expansion.query_articles.empty());
  EXPECT_TRUE(response->expansion.feature_articles.empty());
  // The raw keywords are still issued as the query.
  ASSERT_EQ(response->expansion.titles.size(), 1u);
  EXPECT_EQ(response->expansion.titles[0], "zzz qqq www");
  // Empty keywords are a request error.
  QueryRequest empty;
  EXPECT_TRUE(engine.Query(empty).status().IsInvalidArgument());
}

// ---------------------------------------------------------------- batch

TEST(EngineBatchTest, QueryBatchMatchesSequentialQueries) {
  const Testbed& bed = SmallBed();
  const Engine& engine = bed.engine();
  // Strategies (an alias and the empty default among them) and overrides
  // vary across the batch, so neighboring items never share a config.
  const char* const kStrategies[] = {"cycle",     "direct-link", "",
                                     "community", "no-expansion", "adjacency"};
  std::vector<QueryRequest> requests;
  for (size_t i = 0; i < 50; ++i) {
    QueryRequest request;
    request.keywords = bed.topic(i % bed.num_topics()).keywords;
    request.expander = kStrategies[i % 6];
    if (i % 4 == 0) request.overrides.max_features = 3;
    if (i % 5 == 0) request.overrides.max_neighborhood = 60;
    requests.push_back(std::move(request));
  }

  std::vector<QueryResponse> sequential;
  for (const QueryRequest& request : requests) {
    auto response = engine.Query(request);
    ASSERT_TRUE(response.ok()) << response.status();
    sequential.push_back(std::move(*response));
  }
  auto batch = engine.QueryBatch(requests);
  ASSERT_TRUE(batch.ok()) << batch.status();

  ASSERT_EQ(batch->size(), sequential.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ((*batch)[i].docs, sequential[i].docs) << "request " << i;
    EXPECT_EQ((*batch)[i].expansion.titles, sequential[i].expansion.titles);
    EXPECT_EQ((*batch)[i].expansion.feature_articles,
              sequential[i].expansion.feature_articles);
    EXPECT_EQ((*batch)[i].expansion.expander,
              sequential[i].expansion.expander);
  }
}

TEST(EngineBatchTest, BatchErrorNamesOffendingRequest) {
  const Testbed& bed = SmallBed();
  std::vector<QueryRequest> requests(2);
  requests[0].keywords = bed.topic(0).keywords;
  requests[1].keywords = "";  // invalid
  auto batch = bed.engine().QueryBatch(requests);
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsInvalidArgument());
  EXPECT_NE(batch.status().message().find("request #1"), std::string::npos);
}

// ----------------------------------------------------- retrieval oracle

/// The ranking oracle over `engine`'s corpus: the map-based index and the
/// reference evaluator, with the engine's analyzer.
class RetrievalOracle {
 public:
  explicit RetrievalOracle(const Engine& engine)
      : index_(&engine.search_engine().analyzer()), evaluator_(&index_) {
    EXPECT_TRUE(index_.AddAll(engine.search_engine().store()).ok());
  }
  std::vector<ir::ScoredDoc> Rank(const ir::QueryNode& query,
                                  size_t k) const {
    auto ranked = evaluator_.Evaluate(query, k);
    EXPECT_TRUE(ranked.ok()) << ranked.status();
    return ranked.ok() ? *ranked : std::vector<ir::ScoredDoc>{};
  }

 private:
  ir::InvertedIndex index_;
  ir::QueryEvaluator evaluator_;
};

/// Equal documents and bit-identical scores.
void ExpectSameDocs(const std::vector<ir::ScoredDoc>& got,
                    const std::vector<ir::ScoredDoc>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << "rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].score),
              std::bit_cast<uint64_t>(want[i].score))
        << "rank " << i;
  }
}

TEST(RetrievalOracleTest, EveryTopicAndStrategyMatchesTheOracle) {
  const Testbed& bed = SmallBed();
  const Engine& engine = bed.engine();
  RetrievalOracle oracle(engine);
  for (const std::string& name : engine.registry().Names()) {
    for (size_t t = 0; t < bed.num_topics(); ++t) {
      SCOPED_TRACE(name + ", topic " + std::to_string(t));
      for (size_t k : {size_t{0}, size_t{1}, size_t{100000}}) {
        QueryRequest request;
        request.keywords = bed.topic(t).keywords;
        request.expander = name;
        request.top_k = k;
        auto response = engine.Query(request);
        ASSERT_TRUE(response.ok()) << response.status();
        const size_t want_k = k == 0 ? engine.options().default_top_k : k;
        ExpectSameDocs(response->docs,
                       oracle.Rank(response->expansion.query, want_k));
      }
    }
  }
}

TEST(RetrievalOracleTest, QueryRecordsWorkVolumeAndPrepareOnce) {
  const Testbed& bed = SmallBed();
  RetrievalOracle oracle(bed.engine());
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const std::vector<obs::Histogram*> histograms = {
      registry.GetHistogram("wqe.ir.leaves"),
      registry.GetHistogram("wqe.ir.candidates"),
      registry.GetHistogram("wqe.engine.query_prepare_ms"),
      registry.GetHistogram("wqe.engine.expand_ms")};
  std::vector<obs::HistogramSnapshot> before;
  for (obs::Histogram* h : histograms) before.push_back(h->snapshot());

  QueryRequest request;
  request.keywords = bed.topic(1).keywords;
  auto response = bed.engine().Query(request);
  ASSERT_TRUE(response.ok()) << response.status();
  for (size_t i = 0; i < histograms.size(); ++i) {
    EXPECT_EQ(histograms[i]->snapshot().DeltaSince(before[i]).count, 1u) << i;
  }
  const ir::PreparedQuery& prepared = response->expansion.prepared;
  EXPECT_GT(prepared.num_leaves(), 0u);
  EXPECT_EQ(histograms[0]->snapshot().DeltaSince(before[0]).sum,
            static_cast<double>(prepared.num_leaves()));
  const size_t candidates =
      oracle.Rank(response->expansion.query, SIZE_MAX).size();
  EXPECT_GT(candidates, 0u);
  EXPECT_EQ(histograms[1]->snapshot().DeltaSince(before[1]).sum,
            static_cast<double>(candidates));
}

/// An engine over the SmallBed KB (regenerated: same seed, same graph),
/// with `extra` indexed ahead of the bed's documents when given, and
/// finalized only when `finalize` is set.
std::unique_ptr<Engine> EngineOverBedKb(const std::string& extra,
                                        bool finalize) {
  auto wiki = wiki::GenerateSyntheticWikipedia(SmallBedOptions().wiki);
  EXPECT_TRUE(wiki.ok());
  auto engine = Engine::Build(std::move(wiki->kb));
  EXPECT_TRUE(engine.ok());
  if (!extra.empty()) {
    EXPECT_TRUE((*engine)->AddDocument("extra", extra).ok());
  }
  for (const ir::Document& doc :
       SmallBed().engine().search_engine().store().documents()) {
    EXPECT_TRUE((*engine)->AddDocument(doc.name, doc.text).ok());
  }
  if (finalize) {
    EXPECT_TRUE((*engine)->FinalizeIndex().ok());
  }
  return std::move(*engine);
}

TEST(RetrievalOracleTest, ExpandBeforeFinalizeFailsWithoutExpanding) {
  const Testbed& bed = SmallBed();
  std::unique_ptr<Engine> engine = EngineOverBedKb("", /*finalize=*/false);
  std::shared_ptr<const GraphSnapshot> pin = engine->CurrentSnapshot();
  auto expander = engine->BuildExpander(*pin, "cycle", {});
  ASSERT_TRUE(expander.ok()) << expander.status();
  auto early = engine->ExpandWith(**expander, "cycle", bed.topic(2).keywords);
  ASSERT_FALSE(early.ok());
  EXPECT_TRUE(early.status().IsInvalidArgument()) << early.status();
  EXPECT_EQ(engine->stats().expand_calls, 0u);
}

TEST(RetrievalOracleTest, ExpansionFromAnotherEngineIsRejected) {
  const Testbed& bed = SmallBed();
  const Engine& engine = bed.engine();
  // "aaaa" sorts ahead of the query terms, so the other engine's term ids
  // all differ from this engine's.
  std::unique_ptr<Engine> other = EngineOverBedKb("aaaa", /*finalize=*/true);
  QueryRequest request;
  request.keywords = bed.topic(3).keywords;
  auto foreign = other->Query(request);
  auto own = engine.Query(request);
  ASSERT_TRUE(foreign.ok() && own.ok());
  EXPECT_EQ(foreign->expansion.query.ToString(),
            own->expansion.query.ToString());
  ASSERT_NE(foreign->expansion.prepared.terms, own->expansion.prepared.terms);
  EXPECT_TRUE(engine.search_engine()
                  .Search(foreign->expansion.prepared, 15)
                  .status()
                  .IsInvalidArgument());
  const size_t searches = engine.stats().searches;
  auto response = engine.QueryWithExpansion(foreign->expansion, 0);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsInvalidArgument()) << response.status();
  EXPECT_EQ(engine.stats().searches, searches);
  // The engine's own expansion completes, and matches the oracle.
  auto completed = engine.QueryWithExpansion(own->expansion, 0);
  ASSERT_TRUE(completed.ok()) << completed.status();
  RetrievalOracle oracle(engine);
  ExpectSameDocs(completed->docs, oracle.Rank(own->expansion.query,
                                              engine.options().default_top_k));
}

// ----------------------------------------------------------- evaluation

TEST(EvaluateSystemTest, SkipsUnevaluableTopicsButKeepsRest) {
  const Testbed& bed = SmallBed();
  std::vector<api::EvalTopic> topics = bed.EvalTopics();
  topics.push_back({"", {}});  // unevaluable: empty keywords
  auto eval = api::EvaluateSystem(bed.engine(), "cycle", topics);
  ASSERT_TRUE(eval.ok()) << eval.status();
  EXPECT_EQ(eval->topics, bed.num_topics());
  EXPECT_GT(eval->mean_o, 0.0);
}

TEST(EvaluateSystemTest, AllTopicsFailingPropagatesTheError) {
  // Overrides no topic can run with are a request-level error, not a
  // track of skipped topics: the evaluation fails instead of reporting
  // all-zero precision.
  const Testbed& bed = SmallBed();
  ExpanderOverrides invalid;
  invalid.max_features = 0;
  auto eval = api::EvaluateSystem(bed.engine(), "cycle", bed.EvalTopics(),
                                  invalid);
  ASSERT_FALSE(eval.ok());
  EXPECT_TRUE(eval.status().IsInvalidArgument()) << eval.status();
  EXPECT_NE(eval.status().message().find("max_features"), std::string::npos)
      << eval.status();
}

}  // namespace
}  // namespace wqe::api
