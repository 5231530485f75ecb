/// \file api_test.cc
/// \brief Tests for the `api::Engine` facade and its expander registry:
/// name-based strategy lookup, per-call overrides, batched serving, and
/// the fallback behavior of unlinkable requests.

#include <gtest/gtest.h>

#include <algorithm>

#include "api/engine.h"
#include "api/evaluation.h"
#include "api/testbed.h"
#include "expansion/cycle_expander.h"

namespace wqe::api {
namespace {

const Testbed& SmallBed() {
  static const Testbed* kBed = [] {
    TestbedOptions options;
    options.wiki.num_domains = 12;
    options.track.num_topics = 6;
    options.track.background_docs = 150;
    auto result = Testbed::Build(options);
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
