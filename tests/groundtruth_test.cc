/// \file groundtruth_test.cc
/// \brief Tests for §2: the experiment fixture as §2 reads it (an
/// `api::Testbed`: KB, linker, index, extracted text and qrels), the X(q)
/// hill climb, and query-graph assembly.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "api/testbed.h"
#include "groundtruth/ground_truth.h"
#include "groundtruth/query_graph.h"
#include "groundtruth/xq_optimizer.h"

namespace wqe::groundtruth {
namespace {

/// Small shared testbed (built once; ~1.5k docs).
const api::Testbed& SmallTestbed() {
  static const api::Testbed* kBed = [] {
    api::TestbedOptions options;
    options.wiki.num_domains = 12;
    options.track.num_topics = 6;
    options.track.background_docs = 150;
    auto result = api::Testbed::Build(options);
    EXPECT_TRUE(result.ok()) << result.status();
    return result->release();
  }();
  return *kBed;
}

TEST(TestbedTest, WiresEverything) {
  const api::Testbed& bed = SmallTestbed();
  const ir::SearchEngine& search = bed.engine().search_engine();
  EXPECT_GT(bed.kb().num_articles(), 100u);
  EXPECT_EQ(bed.num_topics(), 6u);
  EXPECT_TRUE(search.finalized());
  EXPECT_EQ(search.store().size(), bed.track().documents.size());
  for (size_t t = 0; t < bed.num_topics(); ++t) {
    EXPECT_EQ(bed.relevant(t).size(), bed.topic(t).relevant.size());
  }
}

TEST(TestbedTest, DocTextIsExtractedNotRawXml) {
  const std::string& text =
      SmallTestbed().engine().search_engine().store().Get(0).text;
  EXPECT_EQ(text.find("<image"), std::string::npos);
  EXPECT_EQ(text.find("xml:lang"), std::string::npos);
  EXPECT_FALSE(text.empty());
}

TEST(TestbedTest, DocTextNeverEmpty) {
  const api::Testbed& bed = SmallTestbed();
  for (const auto& doc : bed.engine().search_engine().store().documents()) {
    EXPECT_FALSE(doc.text.empty()) << doc.name;
  }
}

TEST(TestbedTest, KeywordsLinkToQueryArticles) {
  const api::Testbed& bed = SmallTestbed();
  for (size_t t = 0; t < bed.num_topics(); ++t) {
    auto linked = bed.linker().LinkToArticles(bed.topic(t).keywords);
    // The generated keywords are hub titles; the linker must find them.
    EXPECT_EQ(linked.size(), bed.topic(t).query_articles.size())
        << "topic " << t << ": " << bed.topic(t).keywords;
    for (graph::NodeId q : bed.topic(t).query_articles) {
      EXPECT_NE(std::find(linked.begin(), linked.end(), q), linked.end());
    }
  }
}

// ------------------------------------------------------------- XqOptimizer

class XqOptimizerTest : public ::testing::Test {
 protected:
  const api::Testbed& bed_ = SmallTestbed();
};

TEST_F(XqOptimizerTest, ImprovesOverBaseline) {
  GroundTruthBuilder builder(&bed_);
  auto entry = builder.BuildEntry(0);
  ASSERT_TRUE(entry.ok()) << entry.status();
  EXPECT_GE(entry->xq.quality, entry->xq.baseline_quality);
  EXPECT_GT(entry->xq.quality, 0.5);  // planting makes high O reachable
  EXPECT_FALSE(entry->xq.selected.empty());
}

TEST_F(XqOptimizerTest, SelectedSubsetOfCandidates) {
  GroundTruthBuilder builder(&bed_);
  auto entry = builder.BuildEntry(1);
  ASSERT_TRUE(entry.ok());
  for (graph::NodeId a : entry->xq.selected) {
    EXPECT_NE(std::find(entry->doc_articles.begin(),
                        entry->doc_articles.end(), a),
              entry->doc_articles.end())
        << "selected article not in L(q.D)";
  }
}

TEST_F(XqOptimizerTest, EmptyCandidatesReturnsBaseline) {
  XqOptimizer optimizer(&bed_.engine().search_engine(), &bed_.kb());
  auto linked = bed_.linker().LinkToArticles(bed_.topic(0).keywords);
  auto result = optimizer.Optimize(linked, {}, bed_.relevant(0));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->selected.empty());
  EXPECT_DOUBLE_EQ(result->quality, result->baseline_quality);
}

TEST_F(XqOptimizerTest, DeterministicForSeed) {
  XqOptimizerOptions options;
  options.restarts = 1;
  GroundTruthBuilder b1(&bed_, options), b2(&bed_, options);
  auto e1 = b1.BuildEntry(2);
  auto e2 = b2.BuildEntry(2);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e1->xq.selected, e2->xq.selected);
  EXPECT_DOUBLE_EQ(e1->xq.quality, e2->xq.quality);
}

TEST_F(XqOptimizerTest, EvaluateArticlesMatchesEquation1Range) {
  XqOptimizer optimizer(&bed_.engine().search_engine(), &bed_.kb());
  auto linked = bed_.linker().LinkToArticles(bed_.topic(0).keywords);
  auto o = optimizer.EvaluateArticles(linked, bed_.relevant(0));
  ASSERT_TRUE(o.ok());
  EXPECT_GE(*o, 0.0);
  EXPECT_LE(*o, 1.0);
  // Empty article set evaluates to 0, not an error.
  auto empty = optimizer.EvaluateArticles({}, bed_.relevant(0));
  ASSERT_TRUE(empty.ok());
  EXPECT_DOUBLE_EQ(*empty, 0.0);
}

// -------------------------------------------------------------- QueryGraph

bool IsMember(const QueryGraph& qg, graph::NodeId n) {
  return std::binary_search(qg.nodes.begin(), qg.nodes.end(), n);
}

TEST(QueryGraphTest, ContainsArticlesMainsAndCategories) {
  const api::Testbed& bed = SmallTestbed();
  auto query = bed.linker().LinkToArticles(bed.topic(0).keywords);
  ASSERT_FALSE(query.empty());
  std::vector<graph::NodeId> expansion = {bed.topic(0).planted_good.front()};
  QueryGraph qg = BuildQueryGraph(bed.kb(), query, expansion);

  // Every query/expansion article and each of its categories is present.
  for (graph::NodeId a : query) {
    ASSERT_TRUE(IsMember(qg, a));
    for (graph::NodeId c : bed.kb().CategoriesOf(a)) {
      EXPECT_TRUE(IsMember(qg, c));
    }
  }
  EXPECT_TRUE(IsMember(qg, expansion[0]));
  EXPECT_EQ(qg.query_articles, query);
  EXPECT_EQ(qg.expansion_articles, expansion);
}

TEST(QueryGraphTest, RedirectInputIncludesMainArticle) {
  wiki::KnowledgeBase kb;
  auto main = *kb.AddArticle("main");
  auto cat = *kb.AddCategory("cat");
  ASSERT_TRUE(kb.AddBelongs(main, cat).ok());
  auto alias = *kb.AddRedirect("alias", main);
  kb.Freeze();  // BuildQueryGraph reads the frozen snapshot
  QueryGraph qg = BuildQueryGraph(kb, {alias}, {});
  // alias, main, and main's category are all present.
  EXPECT_EQ(qg.num_nodes(), 3u);
  EXPECT_TRUE(IsMember(qg, alias));
  EXPECT_TRUE(IsMember(qg, main));
  EXPECT_TRUE(IsMember(qg, cat));
}

TEST(QueryGraphTest, NodesAreTheSortedClosureOfTheInputs) {
  // Set-model oracle: the inputs, the main article of each, and the main
  // article's categories, in ascending id order with no repeats — the
  // member list the analysis slices the snapshot over.
  const api::Testbed& bed = SmallTestbed();
  for (size_t topic = 0; topic < bed.num_topics(); ++topic) {
    SCOPED_TRACE("topic " + std::to_string(topic));
    const std::vector<graph::NodeId> query =
        bed.linker().LinkToArticles(bed.topic(topic).keywords);
    const std::vector<graph::NodeId>& expansion =
        bed.topic(topic).planted_good;
    std::set<graph::NodeId> want;
    for (const auto* inputs : {&query, &expansion}) {
      for (graph::NodeId a : *inputs) {
        const graph::NodeId main = bed.kb().ResolveRedirect(a);
        want.insert(a);
        want.insert(main);
        for (graph::NodeId c : bed.kb().CategoriesOf(main)) want.insert(c);
      }
    }
    QueryGraph qg = BuildQueryGraph(bed.kb(), query, expansion);
    EXPECT_EQ(qg.nodes, std::vector<graph::NodeId>(want.begin(), want.end()));
  }
}

// ------------------------------------------------------------- GroundTruth

TEST(GroundTruthTest, BuildAllTopics) {
  const api::Testbed& bed = SmallTestbed();
  XqOptimizerOptions fast;
  fast.restarts = 1;
  fast.enable_swap = false;  // keep the full-track build quick
  GroundTruthBuilder builder(&bed, fast);
  auto gt = builder.Build();
  ASSERT_TRUE(gt.ok()) << gt.status();
  ASSERT_EQ(gt->entries.size(), bed.num_topics());
  for (const GroundTruthEntry& e : gt->entries) {
    EXPECT_EQ(e.precision_at.size(), 4u);
    EXPECT_GT(e.graph.num_nodes(), 0u);
    EXPECT_GE(e.xq.quality, e.xq.baseline_quality);
  }
}

TEST(GroundTruthTest, OutOfRangeTopic) {
  GroundTruthBuilder builder(&SmallTestbed());
  EXPECT_TRUE(builder.BuildEntry(999).status().IsOutOfRange());
}

}  // namespace
}  // namespace wqe::groundtruth
