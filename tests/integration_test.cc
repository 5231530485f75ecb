/// \file integration_test.cc
/// \brief Cross-module end-to-end checks: the whole §2→§3→§4 pipeline on a
/// mid-size instance, asserting the paper's headline shapes.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/paper_report.h"
#include "analysis/query_graph_analysis.h"
#include "api/evaluation.h"
#include "api/testbed.h"
#include "groundtruth/ground_truth.h"
#include "ir/eval.h"
#include "wiki/dump.h"

#include "kb_expect.h"

namespace wqe {
namespace {

struct EndToEnd {
  const api::Testbed* bed;
  groundtruth::GroundTruth gt;
  std::vector<analysis::TopicAnalysis> analyses;
};

const EndToEnd& Context() {
  static const EndToEnd* kContext = [] {
    auto* ctx = new EndToEnd();
    api::TestbedOptions options;
    options.wiki.num_domains = 20;
    options.track.num_topics = 12;
    options.track.background_docs = 300;
    auto bed = api::Testbed::Build(options);
    EXPECT_TRUE(bed.ok()) << bed.status();
    ctx->bed = bed->release();

    groundtruth::XqOptimizerOptions xq;
    xq.restarts = 1;
    xq.enable_swap = false;
    groundtruth::GroundTruthBuilder builder(ctx->bed, xq);
    auto gt = builder.Build();
    EXPECT_TRUE(gt.ok()) << gt.status();
    ctx->gt = std::move(gt).ValueOrDie();

    analysis::QueryGraphAnalyzer analyzer(ctx->bed, &ctx->gt);
    auto analyses = analyzer.AnalyzeAll();
    EXPECT_TRUE(analyses.ok()) << analyses.status();
    ctx->analyses = std::move(analyses).ValueOrDie();
    return ctx;
  }();
  return *kContext;
}

TEST(EndToEndTest, GroundTruthImprovesEveryTopic) {
  for (const auto& e : Context().gt.entries) {
    EXPECT_GE(e.xq.quality, e.xq.baseline_quality - 1e-9)
        << "topic " << e.topic_id;
    EXPECT_GT(e.xq.quality, 0.5) << "topic " << e.topic_id;
  }
}

TEST(EndToEndTest, SystemOrderingMatchesPaperNarrative) {
  const auto& ctx = Context();
  const api::Engine& engine = ctx.bed->engine();
  const auto topics = ctx.bed->EvalTopics();

  auto none_eval = api::EvaluateSystem(engine, "no-expansion", topics);
  auto direct_eval = api::EvaluateSystem(engine, "direct-link", topics);
  auto cycle_eval = api::EvaluateSystem(engine, "cycle", topics);
  ASSERT_TRUE(none_eval.ok());
  ASSERT_TRUE(direct_eval.ok());
  ASSERT_TRUE(cycle_eval.ok());

  // Structure-aware expansion beats both the unexpanded query and naive
  // link expansion.
  EXPECT_GT(cycle_eval->mean_o, none_eval->mean_o);
  EXPECT_GT(cycle_eval->mean_o, direct_eval->mean_o);
  // And does so with fewer features than naive link expansion.
  EXPECT_LT(cycle_eval->mean_features, direct_eval->mean_features);
}

TEST(EndToEndTest, RedirectAliasExtensionDoesNotHurt) {
  const auto& ctx = Context();
  const api::Engine& engine = ctx.bed->engine();
  const auto topics = ctx.bed->EvalTopics();
  api::ExpanderOverrides with_aliases;
  with_aliases.include_redirect_aliases = true;
  auto base_eval = api::EvaluateSystem(engine, "cycle", topics);
  auto alias_eval =
      api::EvaluateSystem(engine, "cycle", topics, with_aliases);
  ASSERT_TRUE(base_eval.ok());
  ASSERT_TRUE(alias_eval.ok());
  EXPECT_GE(alias_eval->mean_o, base_eval->mean_o - 0.05);
}

TEST(EndToEndTest, AliasFeaturesAreRedirectsOfBaseFeatures) {
  const auto& ctx = Context();
  const api::Testbed& bed = *ctx.bed;
  const wiki::KnowledgeBase& kb = bed.kb();
  size_t alias_count = 0;
  for (size_t t = 0; t < bed.num_topics(); ++t) {
    api::QueryRequest request;
    request.keywords = bed.topic(t).keywords;
    request.expander = "cycle";
    request.overrides.include_redirect_aliases = true;
    auto response = bed.engine().Query(request);
    ASSERT_TRUE(response.ok()) << "topic " << t << ": " << response.status();
    const std::vector<graph::NodeId>& features =
        response->expansion.feature_articles;
    for (graph::NodeId f : features) {
      if (!kb.IsRedirect(f)) continue;
      ++alias_count;
      // The alias' main article must itself be a selected feature.
      graph::NodeId main = kb.ResolveRedirect(f);
      EXPECT_NE(std::find(features.begin(), features.end(), main),
                features.end());
    }
  }
  EXPECT_GT(alias_count, 0u);  // the KB has plenty of redirects
}

TEST(EndToEndTest, Figure9TrendIsPositive) {
  analysis::Fig9Report report = analysis::ComputeFig9(Context().analyses);
  EXPECT_GT(report.num_cycles, 100u);
  EXPECT_GT(report.trend.slope, 0.0);
}

TEST(EndToEndTest, Figure5TwoCyclesBeatThreeCycles) {
  analysis::LengthSeries fig5 = analysis::ComputeFig5(Context().analyses);
  ASSERT_EQ(fig5.values.size(), 4u);
  // The robust part of the paper's Fig 5 shape: length 2 above length 3.
  EXPECT_GT(fig5.values[0], fig5.values[1]);
}

TEST(EndToEndTest, QueryGraphsContainSatelliteComponents) {
  // The foreign-mention planting must produce at least some disconnected
  // query graphs, as the paper observes (Table 3 %size < 1).
  size_t with_satellites = 0;
  for (const auto& a : Context().analyses) {
    if (a.component.num_components > 1) ++with_satellites;
  }
  EXPECT_GT(with_satellites, 0u);
}

TEST(EndToEndTest, GroundTruthEntriesCarryTrackIndex) {
  const auto& ctx = Context();
  for (size_t t = 0; t < ctx.gt.entries.size(); ++t) {
    EXPECT_EQ(ctx.gt.entries[t].topic_index, t);
    EXPECT_EQ(ctx.gt.entries[t].topic_id, ctx.bed->topic(t).id);
  }
}

TEST(EndToEndTest, PartialGroundTruthAnalyzesAgainstRightQrels) {
  // Regression test: analyzing a ground truth holding only topic 3 must
  // evaluate contributions against topic 3's qrels, not topic 0's.
  const auto& ctx = Context();
  groundtruth::GroundTruthBuilder builder(ctx.bed);
  auto entry = builder.BuildEntry(3);
  ASSERT_TRUE(entry.ok());
  double baseline = entry->xq.baseline_quality;
  groundtruth::GroundTruth partial;
  partial.entries.push_back(std::move(*entry));
  analysis::QueryGraphAnalyzer analyzer(ctx.bed, &partial);
  auto a = analyzer.Analyze(0);
  ASSERT_TRUE(a.ok());
  EXPECT_NEAR(a->baseline_quality, baseline, 1e-9);
}

TEST(EndToEndTest, PartialGroundTruthTable4UsesItsOwnQrels) {
  // Regression test: Table 4 over a ground truth holding only topic 3 must
  // score against topic 3's qrels, not those of the topic whose track
  // index equals the entry's position (topic 0).
  const auto& ctx = Context();
  const api::Testbed& bed = *ctx.bed;
  groundtruth::GroundTruthBuilder builder(&bed);
  auto entry = builder.BuildEntry(3);
  ASSERT_TRUE(entry.ok());
  groundtruth::GroundTruth partial;
  partial.entries.push_back(std::move(*entry));
  auto analyzed = analysis::QueryGraphAnalyzer(&bed, &partial).Analyze(0);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  const analysis::TopicAnalysis& a = *analyzed;
  auto rows = analysis::ComputeTable4(bed, partial, {a});
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), analysis::Table4Configurations().size());

  // Direct computation: each configuration's query, issued exactly as
  // ComputeTable4 issues it, scored against topic 3's judgments.
  const wiki::KnowledgeBase& kb = bed.kb();
  const std::vector<size_t>& cutoffs = ir::PaperRankCutoffs();
  double best_p15 = 0.0;
  for (const analysis::Table4Row& row : *rows) {
    std::unordered_set<graph::NodeId> features;
    for (uint32_t len : row.lengths) {
      for (graph::NodeId article : a.articles_by_length[len]) {
        features.insert(article);
      }
    }
    std::vector<std::string> titles;
    for (graph::NodeId q : partial.entries[0].query_articles) {
      titles.emplace_back(kb.display_title(q));
      features.erase(q);
    }
    for (graph::NodeId f : features) titles.emplace_back(kb.display_title(f));
    ASSERT_FALSE(titles.empty());
    auto results = bed.engine().search_engine().SearchTitles(titles, 15);
    ASSERT_TRUE(results.ok()) << results.status();
    for (size_t c = 0; c < cutoffs.size(); ++c) {
      EXPECT_DOUBLE_EQ(row.precision[c],
                       ir::PrecisionAtR(*results, bed.relevant(3), cutoffs[c]))
          << "cutoff " << cutoffs[c];
    }
    best_p15 = std::max(best_p15, row.precision[3]);
  }
  EXPECT_GT(best_p15, 0.0);
}

TEST(EndToEndTest, KbSurvivesDumpRoundTripWithinPipeline) {
  const auto& ctx = Context();
  std::string dump = wiki::WriteDump(ctx.bed->kb());
  auto kb2 = wiki::ParseDump(dump);
  ASSERT_TRUE(kb2.ok()) << kb2.status();
  ExpectSameKb(ctx.bed->kb(), *kb2);
}

TEST(EndToEndTest, DeterministicAcrossTestbedBuilds) {
  api::TestbedOptions options;
  options.wiki.num_domains = 8;
  options.track.num_topics = 3;
  options.track.background_docs = 50;
  auto bed1 = api::Testbed::Build(options);
  auto bed2 = api::Testbed::Build(options);
  ASSERT_TRUE(bed1.ok());
  ASSERT_TRUE(bed2.ok());
  ASSERT_EQ((*bed1)->track().documents.size(),
            (*bed2)->track().documents.size());
  for (size_t i = 0; i < (*bed1)->track().documents.size(); ++i) {
    ASSERT_EQ((*bed1)->track().documents[i].xml,
              (*bed2)->track().documents[i].xml);
  }
  groundtruth::GroundTruthBuilder b1(bed1->get()), b2(bed2->get());
  auto e1 = b1.BuildEntry(0);
  auto e2 = b2.BuildEntry(0);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e1->xq.selected, e2->xq.selected);
}

}  // namespace
}  // namespace wqe
