/// \file analysis_test.cc
/// \brief Tests for §3 analysis: component stats, cycle records, and the
/// table/figure aggregations, on a built KB and on the same KB republished
/// from a snapshot file.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "analysis/paper_report.h"
#include "analysis/query_graph_analysis.h"
#include "api/testbed.h"
#include "groundtruth/ground_truth.h"
#include "serve/thread_pool.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"

namespace wqe::analysis {
namespace {

struct Context {
  const api::Testbed* bed;
  groundtruth::GroundTruth gt;
  std::vector<TopicAnalysis> analyses;
};

const Context& SmallContext() {
  static const Context* kContext = [] {
    auto* ctx = new Context();
    api::TestbedOptions options;
    options.wiki.num_domains = 12;
    options.track.num_topics = 6;
    options.track.background_docs = 150;
    auto bed = api::Testbed::Build(options);
    EXPECT_TRUE(bed.ok()) << bed.status();
    ctx->bed = bed->release();

    groundtruth::XqOptimizerOptions fast;
    fast.restarts = 1;
    fast.enable_swap = false;
    groundtruth::GroundTruthBuilder builder(ctx->bed, fast);
    auto gt = builder.Build();
    EXPECT_TRUE(gt.ok()) << gt.status();
    ctx->gt = std::move(gt).ValueOrDie();

    QueryGraphAnalyzer analyzer(ctx->bed, &ctx->gt);
    auto analyses = analyzer.AnalyzeAll();
    EXPECT_TRUE(analyses.ok()) << analyses.status();
    ctx->analyses = std::move(analyses).ValueOrDie();
    return ctx;
  }();
  return *kContext;
}

TEST(TopicAnalysisTest, ComponentStatsAreRatios) {
  for (const TopicAnalysis& a : SmallContext().analyses) {
    EXPECT_GT(a.component.graph_size, 0u);
    EXPECT_GT(a.component.relative_size, 0.0);
    EXPECT_LE(a.component.relative_size, 1.0);
    EXPECT_GE(a.component.article_ratio, 0.0);
    EXPECT_LE(a.component.article_ratio, 1.0);
    EXPECT_NEAR(a.component.article_ratio + a.component.category_ratio, 1.0,
                1e-9);
    EXPECT_GE(a.component.query_node_ratio, 0.0);
    EXPECT_LE(a.component.query_node_ratio, 1.0);
    EXPECT_GE(a.component.tpr, 0.0);
    EXPECT_LE(a.component.tpr, 1.0);
  }
}

TEST(TopicAnalysisTest, CyclesTouchQueryArticles) {
  const Context& ctx = SmallContext();
  for (size_t t = 0; t < ctx.analyses.size(); ++t) {
    const auto& entry = ctx.gt.entries[t];
    for (const CycleRecord& r : ctx.analyses[t].cycles) {
      EXPECT_GE(r.cycle.length(), 2u);
      EXPECT_LE(r.cycle.length(), 5u);
      bool touches = false;
      for (graph::NodeId n : r.cycle.nodes) {
        if (std::find(entry.query_articles.begin(),
                      entry.query_articles.end(),
                      n) != entry.query_articles.end()) {
          touches = true;
          break;
        }
      }
      EXPECT_TRUE(touches);
    }
  }
}

TEST(TopicAnalysisTest, MetricsConsistentWithLength) {
  for (const TopicAnalysis& a : SmallContext().analyses) {
    for (const CycleRecord& r : a.cycles) {
      EXPECT_EQ(r.metrics.length, r.cycle.length());
      EXPECT_EQ(r.metrics.num_articles + r.metrics.num_categories,
                r.metrics.length);
      if (r.metrics.length == 2) {
        EXPECT_EQ(r.metrics.num_categories, 0u);  // schema: no art-cat pair
      }
      EXPECT_GE(r.metrics.extra_edge_density, 0.0);
      EXPECT_LE(r.metrics.extra_edge_density, 1.0);
    }
  }
}

TEST(TopicAnalysisTest, ArticlesByLengthBucketed) {
  const Context& ctx = SmallContext();
  const auto& kb = ctx.bed->kb();
  for (const TopicAnalysis& a : ctx.analyses) {
    for (uint32_t len = 2; len <= 5; ++len) {
      for (graph::NodeId article : a.articles_by_length[len]) {
        EXPECT_TRUE(kb.graph().IsArticle(article));
      }
    }
  }
}

TEST(PaperReportTest, Table2SummariesInRange) {
  auto rows = ComputeTable2(SmallContext().gt);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].cutoff, 1u);
  for (const Table2Row& row : rows) {
    EXPECT_GE(row.summary.min, 0.0);
    EXPECT_LE(row.summary.max, 1.0);
    EXPECT_LE(row.summary.q1, row.summary.median);
    EXPECT_LE(row.summary.median, row.summary.q3);
    EXPECT_EQ(row.summary.n, SmallContext().gt.entries.size());
  }
  // Paper shape: median top-1 and top-5 precision at 1.
  EXPECT_GE(rows[0].summary.median, 0.9);
  EXPECT_GE(rows[1].summary.median, 0.6);
}

TEST(PaperReportTest, Table3CategoriesDominate) {
  Table3Report report = ComputeTable3(SmallContext().analyses);
  // Paper shape: the largest CC is "clearly dominated by categories".
  EXPECT_GT(report.category_ratio.median, 0.5);
  EXPECT_LT(report.article_ratio.median, 0.5);
  EXPECT_GE(report.query_node_ratio.median, 0.9);
}

TEST(PaperReportTest, Table4UnionsDominateSingles) {
  const Context& ctx = SmallContext();
  auto rows = ComputeTable4(*ctx.bed, ctx.gt, ctx.analyses);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 7u);
  const Table4Row& len2 = (*rows)[0];
  const Table4Row& all = (*rows)[6];
  // Paper shape: the {2,3,4,5} union's top-10/top-15 beats length-2 alone.
  EXPECT_GE(all.precision[2], len2.precision[2] - 1e-9);
  EXPECT_GE(all.precision[3], len2.precision[3] - 1e-9);
  for (const Table4Row& row : *rows) {
    for (double p : row.precision) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(PaperReportTest, Fig5And6Series) {
  const Context& ctx = SmallContext();
  LengthSeries fig5 = ComputeFig5(ctx.analyses);
  ASSERT_EQ(fig5.lengths.size(), 4u);
  LengthSeries fig6 = ComputeFig6(ctx.analyses);
  ASSERT_EQ(fig6.lengths.size(), 4u);
  // Paper shape: cycle counts grow with length.
  EXPECT_LT(fig6.values[0], fig6.values[2]);
  EXPECT_LT(fig6.values[1], fig6.values[3]);
}

TEST(PaperReportTest, Fig7SeriesCoverLengths3To5) {
  const Context& ctx = SmallContext();
  LengthSeries fig7a = ComputeFig7a(ctx.analyses);
  ASSERT_EQ(fig7a.lengths.size(), 3u);
  EXPECT_EQ(fig7a.lengths[0], 3u);
  for (double v : fig7a.values) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  LengthSeries fig7b = ComputeFig7b(ctx.analyses);
  for (double v : fig7b.values) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(PaperReportTest, Fig9TrendPositive) {
  const Context& ctx = SmallContext();
  Fig9Report report = ComputeFig9(ctx.analyses);
  EXPECT_GT(report.num_cycles, 0u);
  EXPECT_EQ(report.bin_centers.size(), report.mean_contribution.size());
  // Paper shape: "the denser the cycle, the better its contribution".
  EXPECT_GT(report.trend.slope, 0.0);
}

TEST(PaperReportTest, MiscScalarsPlausible) {
  const Context& ctx = SmallContext();
  MiscScalars scalars = ComputeMiscScalars(*ctx.bed, ctx.analyses);
  // TPR ≈ 0.3 in the paper; accept a generous band around it.
  EXPECT_GT(scalars.mean_largest_cc_tpr, 0.1);
  EXPECT_LT(scalars.mean_largest_cc_tpr, 0.8);
  // Reciprocal rate calibrated to ≈ 0.115.
  EXPECT_GT(scalars.reciprocal_link_rate, 0.06);
  EXPECT_LT(scalars.reciprocal_link_rate, 0.2);
  EXPECT_GT(scalars.mean_graph_size, 5.0);
}

TEST(PaperReportTest, ArticleFrequencyCorrelationComputes) {
  const Context& ctx = SmallContext();
  auto report =
      ComputeArticleFrequencyCorrelation(*ctx.bed, ctx.gt, ctx.analyses);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->num_articles, 0u);
  EXPECT_GE(report->pearson, -1.0);
  EXPECT_LE(report->pearson, 1.0);
  // The planted correlation: frequent articles are at least roughly as
  // good as rare ones (the signal the paper conjectured is exploitable).
  EXPECT_GE(report->mean_gain_frequent, report->mean_gain_rare - 10.0);
}

TEST(AnalyzerTest, OutOfRangeTopic) {
  const Context& ctx = SmallContext();
  QueryGraphAnalyzer analyzer(ctx.bed, &ctx.gt);
  EXPECT_TRUE(analyzer.Analyze(999).status().IsOutOfRange());
}

TEST(AnalyzerTest, ScoringCapStillCountsAllCycles) {
  const Context& ctx = SmallContext();
  AnalyzerOptions capped;
  capped.max_scored_cycles = 1;
  QueryGraphAnalyzer analyzer(ctx.bed, &ctx.gt, capped);
  auto a = analyzer.Analyze(0);
  ASSERT_TRUE(a.ok());
  QueryGraphAnalyzer full(ctx.bed, &ctx.gt);
  auto b = full.Analyze(0);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->cycles.size(), b->cycles.size());
}

/// Field-for-field comparison of two analyses of one ground truth.
void ExpectSameAnalyses(const std::vector<TopicAnalysis>& got_all,
                        const std::vector<TopicAnalysis>& want_all) {
  ASSERT_EQ(got_all.size(), want_all.size());
  for (size_t t = 0; t < want_all.size(); ++t) {
    const TopicAnalysis& want = want_all[t];
    const TopicAnalysis& got = got_all[t];
    EXPECT_EQ(got.topic_index, want.topic_index);
    EXPECT_DOUBLE_EQ(got.baseline_quality, want.baseline_quality);
    EXPECT_EQ(got.component.graph_size, want.component.graph_size);
    EXPECT_EQ(got.component.num_components, want.component.num_components);
    EXPECT_DOUBLE_EQ(got.component.relative_size,
                     want.component.relative_size);
    EXPECT_DOUBLE_EQ(got.component.query_node_ratio,
                     want.component.query_node_ratio);
    EXPECT_DOUBLE_EQ(got.component.article_ratio,
                     want.component.article_ratio);
    EXPECT_DOUBLE_EQ(got.component.category_ratio,
                     want.component.category_ratio);
    EXPECT_DOUBLE_EQ(got.component.expansion_ratio,
                     want.component.expansion_ratio);
    EXPECT_DOUBLE_EQ(got.component.tpr, want.component.tpr);
    ASSERT_EQ(got.cycles.size(), want.cycles.size()) << "topic " << t;
    for (size_t c = 0; c < want.cycles.size(); ++c) {
      EXPECT_EQ(got.cycles[c].cycle.nodes, want.cycles[c].cycle.nodes);
      EXPECT_DOUBLE_EQ(got.cycles[c].contribution,
                       want.cycles[c].contribution);
      EXPECT_TRUE(got.cycles[c].metrics == want.cycles[c].metrics)
          << "topic " << t << " cycle " << c;
    }
    for (uint32_t len = kMinCycleLength; len <= kMaxCycleLength; ++len) {
      EXPECT_EQ(got.articles_by_length[len], want.articles_by_length[len]);
    }
  }
}

TEST(AnalyzerTest, ParallelAnalyzeAllIdenticalToSequential) {
  // The shared context's analyses were computed sequentially (the
  // analyzer's num_threads defaults to 1); a 4-thread AnalyzeAll over the
  // same ground truth must reproduce them field-for-field.
  const Context& ctx = SmallContext();
  AnalyzerOptions parallel;
  parallel.num_threads = 4;
  QueryGraphAnalyzer analyzer(ctx.bed, &ctx.gt, parallel);
  auto analyses = analyzer.AnalyzeAll();
  ASSERT_TRUE(analyses.ok()) << analyses.status();
  ExpectSameAnalyses(*analyses, ctx.analyses);
}

TEST(AnalyzerTest, AnalyzeAllFromPoolWorkerDegradesToSequential) {
  // AnalyzeAll asked for a 4-thread fan-out on a 1-worker pool, from a
  // task running on that very worker: a fan-out that waited for the pool
  // would wait for itself forever.  It must run sequentially instead, so
  // finishing at all is the deadlock check.
  const Context& ctx = SmallContext();
  serve::ThreadPool pool(1);
  AnalyzerOptions nested;
  nested.num_threads = 4;
  nested.pool = &pool;
  QueryGraphAnalyzer analyzer(ctx.bed, &ctx.gt, nested);
  auto analyses = pool.Submit([&] { return analyzer.AnalyzeAll(); }).get();
  ASSERT_TRUE(analyses.ok()) << analyses.status();
  ExpectSameAnalyses(*analyses, ctx.analyses);
}

// ----------------------------------------------- loaded-snapshot analysis

/// Everything §2/§3 derives from one testbed.
struct PaperNumbers {
  groundtruth::GroundTruth gt;
  std::vector<TopicAnalysis> analyses;
  std::vector<Table4Row> table4;
  ArticleFrequencyReport frequency;
  MiscScalars scalars;
};

void ComputePaperNumbers(const api::Testbed& bed, PaperNumbers* out) {
  groundtruth::XqOptimizerOptions fast;
  fast.restarts = 1;
  fast.enable_swap = false;
  auto gt = groundtruth::GroundTruthBuilder(&bed, fast).Build();
  ASSERT_TRUE(gt.ok()) << gt.status();
  out->gt = std::move(gt).ValueOrDie();
  auto analyses = QueryGraphAnalyzer(&bed, &out->gt).AnalyzeAll();
  ASSERT_TRUE(analyses.ok()) << analyses.status();
  out->analyses = std::move(analyses).ValueOrDie();
  auto table4 = ComputeTable4(bed, out->gt, out->analyses);
  ASSERT_TRUE(table4.ok()) << table4.status();
  out->table4 = std::move(table4).ValueOrDie();
  auto frequency =
      ComputeArticleFrequencyCorrelation(bed, out->gt, out->analyses);
  ASSERT_TRUE(frequency.ok()) << frequency.status();
  out->frequency = *frequency;
  out->scalars = ComputeMiscScalars(bed, out->analyses);
}

void ExpectSameGroundTruth(const groundtruth::GroundTruth& got_gt,
                           const groundtruth::GroundTruth& want_gt) {
  ASSERT_EQ(got_gt.entries.size(), want_gt.entries.size());
  for (size_t t = 0; t < want_gt.entries.size(); ++t) {
    const groundtruth::GroundTruthEntry& got = got_gt.entries[t];
    const groundtruth::GroundTruthEntry& want = want_gt.entries[t];
    EXPECT_EQ(got.topic_index, want.topic_index);
    EXPECT_EQ(got.topic_id, want.topic_id);
    EXPECT_EQ(got.keywords, want.keywords);
    EXPECT_EQ(got.query_articles, want.query_articles);
    EXPECT_EQ(got.doc_articles, want.doc_articles);
    EXPECT_EQ(got.xq.selected, want.xq.selected);
    EXPECT_DOUBLE_EQ(got.xq.quality, want.xq.quality);
    EXPECT_DOUBLE_EQ(got.xq.baseline_quality, want.xq.baseline_quality);
    EXPECT_EQ(got.xq.iterations, want.xq.iterations);
    EXPECT_EQ(got.xq.evaluations, want.xq.evaluations);
    EXPECT_EQ(got.precision_at, want.precision_at);
    EXPECT_EQ(got.graph.sub.to_parent, want.graph.sub.to_parent);
    EXPECT_EQ(got.graph.sub.out_offsets, want.graph.sub.out_offsets);
    EXPECT_EQ(got.graph.sub.out_targets, want.graph.sub.out_targets);
    EXPECT_TRUE(got.graph.sub.out_kinds == want.graph.sub.out_kinds)
        << "topic " << t;
    EXPECT_EQ(got.graph.query_articles, want.graph.query_articles);
    EXPECT_EQ(got.graph.expansion_articles, want.graph.expansion_articles);
  }
}

TEST(LoadedSnapshotAnalysisTest, MatchesTheBuiltKbFieldForField) {
  // §2/§3 read the engine's published snapshot, which may be a KB loaded
  // from disk — and a loaded KB has no builder graph.  Every number must
  // come from the frozen CSR, and so match the built KB's exactly.
  api::TestbedOptions options;
  options.wiki.num_domains = 8;
  options.track.num_topics = 3;
  options.track.background_docs = 60;
  auto built_bed = api::Testbed::Build(options);
  ASSERT_TRUE(built_bed.ok()) << built_bed.status();
  api::Testbed& bed = **built_bed;
  ASSERT_FALSE(bed.kb().loaded());
  PaperNumbers built;
  ASSERT_NO_FATAL_FAILURE(ComputePaperNumbers(bed, &built));

  const std::string path = ::testing::TempDir() + "wqe_analysis_loaded_" +
                           std::to_string(::getpid()) + ".bin";
  ASSERT_TRUE(snapshot::WriteSnapshot(bed.kb(), path).ok());
  auto loaded = snapshot::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::remove(path.c_str());  // a mapping outlives its directory entry
  ASSERT_TRUE(bed.engine().PublishSnapshot(std::move(*loaded)).ok());
  ASSERT_TRUE(bed.kb().loaded());
  PaperNumbers reloaded;
  ASSERT_NO_FATAL_FAILURE(ComputePaperNumbers(bed, &reloaded));

  ExpectSameGroundTruth(reloaded.gt, built.gt);
  ExpectSameAnalyses(reloaded.analyses, built.analyses);
  ASSERT_EQ(reloaded.table4.size(), built.table4.size());
  for (size_t i = 0; i < built.table4.size(); ++i) {
    EXPECT_EQ(reloaded.table4[i].lengths, built.table4[i].lengths);
    EXPECT_EQ(reloaded.table4[i].precision, built.table4[i].precision);
  }
  // The frequency report is the aggregation that tells articles from
  // categories per cycle node; it must have had cycles to read.
  EXPECT_GT(built.frequency.num_articles, 0u);
  EXPECT_EQ(reloaded.frequency.num_articles, built.frequency.num_articles);
  EXPECT_DOUBLE_EQ(reloaded.frequency.pearson, built.frequency.pearson);
  EXPECT_DOUBLE_EQ(reloaded.frequency.trend.slope,
                   built.frequency.trend.slope);
  EXPECT_DOUBLE_EQ(reloaded.frequency.trend.intercept,
                   built.frequency.trend.intercept);
  EXPECT_DOUBLE_EQ(reloaded.frequency.trend.r2, built.frequency.trend.r2);
  EXPECT_DOUBLE_EQ(reloaded.frequency.mean_gain_frequent,
                   built.frequency.mean_gain_frequent);
  EXPECT_DOUBLE_EQ(reloaded.frequency.mean_gain_rare,
                   built.frequency.mean_gain_rare);
  EXPECT_DOUBLE_EQ(reloaded.scalars.mean_largest_cc_tpr,
                   built.scalars.mean_largest_cc_tpr);
  EXPECT_DOUBLE_EQ(reloaded.scalars.reciprocal_link_rate,
                   built.scalars.reciprocal_link_rate);
  EXPECT_DOUBLE_EQ(reloaded.scalars.mean_graph_size,
                   built.scalars.mean_graph_size);
}

}  // namespace
}  // namespace wqe::analysis
