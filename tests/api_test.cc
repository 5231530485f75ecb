/// \file api_test.cc
/// \brief Tests for the `api::Engine` facade and its expander registry:
/// name-based strategy lookup, per-call overrides, batched serving, the
/// fallback behavior of unlinkable requests, and retrieval against the
/// map-based ranking oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "api/engine.h"
#include "api/evaluation.h"
#include "api/testbed.h"
#include "expansion/cycle_expander.h"
#include "ir/inverted_index.h"
#include "ir/scorer.h"
#include "obs/metrics.h"
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
  EXPECT_NE(result.status().message().find("cycle"), std::string::npos);
}

TEST(ExpanderRegistryTest, DuplicateRegistrationFails) {
  ExpanderRegistry registry = ExpanderRegistry::WithBuiltins();
  auto factory = [](const wiki::KnowledgeBase&, const linking::EntityLinker&,
                    const ExpanderOverrides&)
      -> Result<std::unique_ptr<expansion::Expander>> {
    return Status::NotImplemented("test-only");
  };
  EXPECT_TRUE(registry.Register("cycle", factory).IsAlreadyExists());
  EXPECT_TRUE(registry.Register("adjacency", factory).IsAlreadyExists());
  EXPECT_TRUE(registry.Register("", factory).IsInvalidArgument());
  EXPECT_TRUE(registry.Register("custom", nullptr).IsInvalidArgument());
  EXPECT_TRUE(registry.Register("custom", factory).ok());
  EXPECT_TRUE(registry.Contains("custom"));
  EXPECT_TRUE(registry.RegisterAlias("alias", "nope").IsNotFound());
  EXPECT_TRUE(registry.RegisterAlias("custom2", "custom").ok());
  EXPECT_EQ(registry.Resolve("custom2"), "custom");
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
}

// --------------------------------------------------------------- engine

TEST(EngineTest, BuildRejectsUnknownDefaultExpander) {
  EngineOptions options;
  options.default_expander = "nope";
  auto engine = Engine::Build(wiki::KnowledgeBase(), options);
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsInvalidArgument());
}

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
  EXPECT_EQ(response->expansion.expander, engine.options().default_expander);
  EXPECT_FALSE(response->docs.empty());
}

TEST(EngineTest, AliasResolvesToCanonicalStrategy) {
  const Engine& engine = SmallBed().engine();
  ExpandRequest request;
  request.keywords = SmallBed().topic(0).keywords;
  request.expander = "adjacency";
  auto response = engine.Expand(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->expander, "direct-link");
}

TEST(EngineTest, PerCallOverridesApply) {
  const Engine& engine = SmallBed().engine();
  ExpandRequest base;
  base.keywords = SmallBed().topic(0).keywords;
  base.expander = "cycle";
  auto unlimited = engine.Expand(base);
  ASSERT_TRUE(unlimited.ok());
  ASSERT_GT(unlimited->feature_articles.size(), 1u);

  ExpandRequest capped = base;
  capped.overrides.max_features = 1;
  auto one = engine.Expand(capped);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->feature_articles.size(), 1u);
  // The overridden call must not disturb subsequent default calls.
  auto again = engine.Expand(base);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->feature_articles, unlimited->feature_articles);
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
/// reference evaluator, with the engine's analyzer and scoring options.
class RetrievalOracle {
 public:
  explicit RetrievalOracle(const Engine& engine)
      : index_(&engine.search_engine().analyzer()),
        evaluator_(&index_, engine.options().search.scorer) {
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
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
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

TEST(RetrievalOracleTest, ExpansionMadeBeforeFinalizeIsPreparedAtQuery) {
  const Testbed& bed = SmallBed();
  std::unique_ptr<Engine> engine = EngineOverBedKb("", /*finalize=*/false);
  ExpandRequest request;
  request.keywords = bed.topic(2).keywords;
  auto early = engine->Expand(request);
  ASSERT_TRUE(early.ok()) << early.status();
  EXPECT_EQ(early->prepared.index_id, 0u);  // nothing to resolve against
  ASSERT_TRUE(engine->FinalizeIndex().ok());

  auto response = engine->QueryWithExpansion(*early, 0);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->expansion.prepared.index_id,
            engine->search_engine().index().id());
  RetrievalOracle oracle(*engine);
  ExpectSameDocs(response->docs,
                 oracle.Rank(early->query, engine->options().default_top_k));
  // The same ranking the bed's own engine gives the same request.
  QueryRequest query;
  query.keywords = request.keywords;
  auto reference = bed.engine().Query(query);
  ASSERT_TRUE(reference.ok());
  ExpectSameDocs(response->docs, reference->docs);
}

TEST(RetrievalOracleTest, ExpansionFromAnotherEngineIsReprepared) {
  const Testbed& bed = SmallBed();
  const Engine& engine = bed.engine();
  // "aaaa" sorts ahead of the query terms, so the other engine's term ids
  // all differ from this engine's.
  std::unique_ptr<Engine> other = EngineOverBedKb("aaaa", /*finalize=*/true);
  ExpandRequest request;
  request.keywords = bed.topic(3).keywords;
  auto foreign = other->Expand(request);
  auto own = engine.Expand(request);
  ASSERT_TRUE(foreign.ok() && own.ok());
  EXPECT_EQ(foreign->query.ToString(), own->query.ToString());
  ASSERT_NE(foreign->prepared.terms, own->prepared.terms);
  EXPECT_TRUE(engine.search_engine()
                  .Search(foreign->prepared, 15)
                  .status()
                  .IsInvalidArgument());

  auto response = engine.QueryWithExpansion(*foreign, 0);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->expansion.prepared.index_id,
            engine.search_engine().index().id());
  EXPECT_EQ(response->expansion.prepared.terms, own->prepared.terms);
  RetrievalOracle oracle(engine);
  ExpectSameDocs(response->docs,
                 oracle.Rank(own->query, engine.options().default_top_k));
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
