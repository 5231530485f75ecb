/// \file expansion_test.cc
/// \brief Tests for the expansion systems: cycle expander and baselines.
///
/// Concrete expander classes are constructed directly only here (these
/// are their unit tests); everything else goes through the api::Engine
/// registry.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <unordered_map>

#include "api/evaluation.h"
#include "api/testbed.h"
#include "expansion/baselines.h"
#include "expansion/cycle_expander.h"
#include "graph/ball_prune.h"
#include "graph/cycles.h"
#include "graph/undirected_view.h"
#include "obs/metrics.h"

namespace wqe::expansion {
namespace {

const api::Testbed& SmallBed() {
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

TEST(NoExpansionTest, EmitsKeywordsOnly) {
  const auto& bed = SmallBed();
  NoExpansion system(bed.kb(), bed.linker());
  auto expanded = system.Expand(bed.topic(0).keywords);
  ASSERT_TRUE(expanded.ok());
  EXPECT_TRUE(expanded->feature_articles.empty());
  EXPECT_EQ(expanded->titles.size(), expanded->query_articles.size());
  EXPECT_FALSE(expanded->query.children.empty());
}

TEST(ExpanderTest, UnlinkableKeywordsFallBackToRawQuery) {
  const auto& bed = SmallBed();
  NoExpansion system(bed.kb(), bed.linker());
  auto expanded = system.Expand("zzz qqq www");
  ASSERT_TRUE(expanded.ok());
  EXPECT_TRUE(expanded->query_articles.empty());
  EXPECT_FALSE(expanded->query.children.empty());
  EXPECT_TRUE(system.Expand("").status().IsInvalidArgument());
}

TEST(DirectLinkTest, FeaturesAreLinkedNeighbors) {
  const auto& bed = SmallBed();
  DirectLinkExpansion system(bed.kb(), bed.linker());
  auto expanded = system.Expand(bed.topic(0).keywords);
  ASSERT_TRUE(expanded.ok());
  EXPECT_FALSE(expanded->feature_articles.empty());
  EXPECT_LE(expanded->feature_articles.size(), 10u);
  for (graph::NodeId f : expanded->feature_articles) {
    bool linked = false;
    for (graph::NodeId q : expanded->query_articles) {
      if (bed.kb().csr().HasEdge(q, f, graph::EdgeKind::kLink)) {
        linked = true;
        break;
      }
    }
    EXPECT_TRUE(linked) << bed.kb().display_title(f);
  }
}

TEST(CommunityTest, FeaturesCloseTrianglesWithQuery) {
  const auto& bed = SmallBed();
  CommunityExpansion system(bed.kb(), bed.linker());
  auto expanded = system.Expand(bed.topic(0).keywords);
  ASSERT_TRUE(expanded.ok());
  EXPECT_LE(expanded->feature_articles.size(), 10u);
}

TEST(CycleExpanderTest, AcceptsCycleFilters) {
  const auto& bed = SmallBed();
  CycleExpander system(bed.kb(), bed.linker());

  graph::CycleMetrics two_cycle;
  two_cycle.length = 2;
  EXPECT_TRUE(system.AcceptsCycle(two_cycle));

  graph::CycleMetrics cat_free_triangle;  // the sheep–anthrax case (Fig 8)
  cat_free_triangle.length = 3;
  cat_free_triangle.category_ratio = 0.0;
  cat_free_triangle.extra_edge_density = 1.0;
  EXPECT_FALSE(system.AcceptsCycle(cat_free_triangle));

  graph::CycleMetrics good_triangle;
  good_triangle.length = 3;
  good_triangle.category_ratio = 1.0 / 3.0;
  good_triangle.extra_edge_density = 0.0;
  EXPECT_TRUE(system.AcceptsCycle(good_triangle));  // density from len 4

  graph::CycleMetrics sparse_long;
  sparse_long.length = 5;
  sparse_long.category_ratio = 0.4;
  sparse_long.extra_edge_density = 0.1;
  EXPECT_FALSE(system.AcceptsCycle(sparse_long));

  graph::CycleMetrics dense_long = sparse_long;
  dense_long.extra_edge_density = 0.8;
  EXPECT_TRUE(system.AcceptsCycle(dense_long));

  graph::CycleMetrics all_categories;
  all_categories.length = 4;
  all_categories.category_ratio = 1.0;
  all_categories.extra_edge_density = 1.0;
  EXPECT_FALSE(system.AcceptsCycle(all_categories));  // ratio > max

  graph::CycleMetrics too_long;
  too_long.length = 6;
  too_long.category_ratio = 0.3;
  too_long.extra_edge_density = 1.0;
  EXPECT_FALSE(system.AcceptsCycle(too_long));
}

TEST(CycleExpanderTest, FindsPlantedCoreArticles) {
  const auto& bed = SmallBed();
  CycleExpander system(bed.kb(), bed.linker());
  size_t topics_with_core_hit = 0;
  for (size_t t = 0; t < bed.num_topics(); ++t) {
    auto expanded = system.Expand(bed.topic(t).keywords);
    ASSERT_TRUE(expanded.ok());
    const auto& planted = bed.topic(t).planted_good;
    size_t hits = 0;
    for (graph::NodeId f : expanded->feature_articles) {
      if (std::find(planted.begin(), planted.end(), f) != planted.end()) {
        ++hits;
      }
    }
    if (hits >= 2) ++topics_with_core_hit;
  }
  // Structure must recover planted features for most topics.
  EXPECT_GE(topics_with_core_hit, bed.num_topics() - 1);
}

TEST(CycleExpanderTest, RespectsMaxFeatures) {
  const auto& bed = SmallBed();
  CycleExpanderOptions options;
  options.max_features = 3;
  CycleExpander system(bed.kb(), bed.linker(), options);
  auto expanded = system.Expand(bed.topic(0).keywords);
  ASSERT_TRUE(expanded.ok());
  EXPECT_LE(expanded->feature_articles.size(), 3u);
}

TEST(CycleExpanderTest, DeterministicOutput) {
  const auto& bed = SmallBed();
  CycleExpander system(bed.kb(), bed.linker());
  auto a = system.Expand(bed.topic(2).keywords);
  auto b = system.Expand(bed.topic(2).keywords);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->feature_articles, b->feature_articles);
}

/// Feature selection as the cycle expander did it before its ball-local
/// scorer: a global `Cycle` per visit, `ComputeCycleMetrics` on the frozen
/// snapshot, and `unordered_map` tallies keyed by global id.
struct ReferenceSelection {
  std::vector<graph::NodeId> features;
  size_t ball_nodes = 0;
  size_t prune_survivors = 0;
  size_t visited = 0;
  size_t accepted = 0;
};

ReferenceSelection ReferenceSelectFeatures(
    const CycleExpander& expander, const wiki::KnowledgeBase& kb,
    const std::vector<graph::NodeId>& query_articles) {
  const CycleExpanderOptions& options = expander.options();
  const graph::CsrGraph& csr = kb.csr();
  const graph::UndirectedView view(
      csr, kb.Neighborhood(query_articles, options.neighborhood_radius,
                           options.max_neighborhood));
  graph::CycleEnumerationOptions enum_options;
  enum_options.min_length = options.min_cycle_length;
  enum_options.max_length = options.max_cycle_length;
  enum_options.seeds = query_articles;
  enum_options.max_cycles = options.max_cycles;

  struct PerLength {
    std::array<double, 6> weight_sum{};
    std::array<uint32_t, 6> count{};
  };
  std::unordered_map<graph::NodeId, PerLength> tallies;
  ReferenceSelection out;
  out.ball_nodes = view.num_nodes();
  std::vector<uint64_t> alive;
  out.prune_survivors =
      graph::PruneBall(view, query_articles, options.max_cycle_length, &alive)
          .num_alive;
  out.visited = graph::CycleEnumerator(view).Visit(
      enum_options, [&](const std::vector<uint32_t>& local) {
        graph::Cycle cycle;
        for (uint32_t l : local) cycle.nodes.push_back(view.ToGlobal(l));
        graph::CycleMetrics metrics = graph::ComputeCycleMetrics(csr, cycle);
        if (!expander.AcceptsCycle(metrics)) return true;
        ++out.accepted;
        double quality = metrics.length == 2 ? options.two_cycle_weight
                                             : 1.0 + metrics.extra_edge_density;
        for (graph::NodeId n : cycle.nodes) {
          if (!csr.IsArticle(n)) continue;
          if (std::find(query_articles.begin(), query_articles.end(), n) !=
              query_articles.end()) {
            continue;
          }
          PerLength& t = tallies[n];
          t.weight_sum[metrics.length] += quality;
          ++t.count[metrics.length];
        }
        return true;
      });

  std::vector<std::pair<graph::NodeId, double>> ranked;
  for (const auto& [article, t] : tallies) {
    double score = 0.0;
    for (uint32_t len = 2; len <= 5; ++len) {
      if (t.count[len] == 0) continue;
      double mean_quality =
          t.weight_sum[len] / static_cast<double>(t.count[len]);
      double volume = options.sqrt_count_damping
                          ? std::sqrt(static_cast<double>(t.count[len]))
                          : static_cast<double>(t.count[len]);
      score += std::pow(options.length_decay, static_cast<double>(len - 2)) *
               mean_quality * volume;
    }
    ranked.emplace_back(article, score);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  for (const auto& [article, score] : ranked) {
    if (out.features.size() >= options.max_features) break;
    out.features.push_back(article);
  }
  return out;
}

TEST(CycleExpanderTest, FeaturesMatchReferenceAcrossFilterVariants) {
  const auto& bed = SmallBed();
  // The default options plus each E11 (ablation_cycle_filters) variant.
  const std::vector<std::pair<const char*,
                              std::function<void(CycleExpanderOptions*)>>>
      variants = {
          {"defaults", [](CycleExpanderOptions*) {}},
          {"no category-ratio filter",
           [](CycleExpanderOptions* o) {
             o->min_category_ratio = 0.0;
             o->max_category_ratio = 1.0;
           }},
          {"no density filter",
           [](CycleExpanderOptions* o) { o->min_density = 0.0; }},
          {"no structural filters",
           [](CycleExpanderOptions* o) {
             o->min_density = 0.0;
             o->min_category_ratio = 0.0;
             o->max_category_ratio = 1.0;
           }},
          {"no length-2 boost",
           [](CycleExpanderOptions* o) { o->two_cycle_weight = 1.0; }},
          {"lengths 2-3",
           [](CycleExpanderOptions* o) { o->max_cycle_length = 3; }},
          {"lengths 4-5",
           [](CycleExpanderOptions* o) { o->min_cycle_length = 4; }},
          {"raw cycle counts",
           [](CycleExpanderOptions* o) {
             o->length_decay = 1.0;
             o->sqrt_count_damping = false;
           }},
      };
  for (const auto& [name, apply] : variants) {
    CycleExpanderOptions options;
    apply(&options);
    CycleExpander system(bed.kb(), bed.linker(), options);
    for (size_t t = 0; t < bed.num_topics(); ++t) {
      auto expanded = system.Expand(bed.topic(t).keywords);
      ASSERT_TRUE(expanded.ok()) << expanded.status();
      ASSERT_FALSE(expanded->query_articles.empty());
      ReferenceSelection want =
          ReferenceSelectFeatures(system, bed.kb(), expanded->query_articles);
      EXPECT_GT(want.accepted, 0u) << name << ", topic " << t;
      EXPECT_EQ(expanded->feature_articles, want.features)
          << name << ", topic " << t;
    }
  }
}

TEST(CycleExpanderTest, RecordsCycleWorkVolumePerRequest) {
  const auto& bed = SmallBed();
  CycleExpander system(bed.kb(), bed.linker());
  const std::vector<obs::Histogram*> histograms = {
      obs::MetricsRegistry::Global().GetHistogram("wqe.expansion.ball_nodes"),
      obs::MetricsRegistry::Global().GetHistogram("wqe.graph.prune_survivors"),
      obs::MetricsRegistry::Global().GetHistogram(
          "wqe.expansion.cycles_visited"),
      obs::MetricsRegistry::Global().GetHistogram(
          "wqe.expansion.cycles_accepted")};
  std::vector<obs::HistogramSnapshot> before;
  for (obs::Histogram* h : histograms) before.push_back(h->snapshot());

  auto expanded = system.Expand(bed.topic(1).keywords);
  ASSERT_TRUE(expanded.ok()) << expanded.status();
  std::vector<obs::HistogramSnapshot> deltas;
  for (size_t i = 0; i < histograms.size(); ++i) {
    deltas.push_back(histograms[i]->snapshot().DeltaSince(before[i]));
  }
  ReferenceSelection want =
      ReferenceSelectFeatures(system, bed.kb(), expanded->query_articles);
  EXPECT_GT(want.visited, 0u);
  EXPECT_GT(want.prune_survivors, 0u);
  EXPECT_LE(want.prune_survivors, want.ball_nodes);
  const std::vector<size_t> want_sums = {want.ball_nodes, want.prune_survivors,
                                         want.visited, want.accepted};
  for (size_t i = 0; i < histograms.size(); ++i) {
    EXPECT_EQ(deltas[i].count, 1u) << i;
    EXPECT_EQ(deltas[i].sum, static_cast<double>(want_sums[i])) << i;
  }
}

TEST(ExpanderTest, RecordsOneLinkingObservationPerExpand) {
  const auto& bed = SmallBed();
  obs::Histogram* linking =
      obs::MetricsRegistry::Global().GetHistogram("wqe.expansion.linking_ms");
  NoExpansion none(bed.kb(), bed.linker());
  CycleExpander cycle(bed.kb(), bed.linker());
  // Linked and unlinkable keywords, through a baseline and the cycle
  // expander: linking runs once per Expand either way.
  for (const Expander* system : {static_cast<const Expander*>(&none),
                                 static_cast<const Expander*>(&cycle)}) {
    for (const std::string& keywords :
         {bed.topic(0).keywords, std::string("zzz qqq www")}) {
      const obs::HistogramSnapshot before = linking->snapshot();
      ASSERT_TRUE(system->Expand(keywords).ok());
      EXPECT_EQ(linking->snapshot().DeltaSince(before).count, 1u) << keywords;
    }
  }
}

TEST(CycleExpanderTest, RejectsCycleLengthPastTallies) {
  const auto& bed = SmallBed();
  CycleExpanderOptions options;
  options.max_cycle_length = kMaxCycleLength + 1;
  CycleExpander system(bed.kb(), bed.linker(), options);
  EXPECT_TRUE(
      system.Expand(bed.topic(0).keywords).status().IsInvalidArgument());
}

TEST(CycleExpanderTest, RejectsBallPastEnumerationBound) {
  // "hub" links to kMaxCycleViewNodes articles, so its ball is one node
  // past the enumerator's bound once the cap lets it grow that far.
  wiki::KnowledgeBase kb;
  const auto hub = kb.AddArticle("hub");
  ASSERT_TRUE(hub.ok());
  for (uint32_t i = 0; i < graph::kMaxCycleViewNodes; ++i) {
    const auto leaf = kb.AddArticle("leaf " + std::to_string(i));
    ASSERT_TRUE(leaf.ok());
    ASSERT_TRUE(kb.AddLink(*hub, *leaf).ok());
  }
  kb.Freeze();
  const linking::EntityLinker linker(&kb);
  CycleExpanderOptions options;
  EXPECT_TRUE(CycleExpander(kb, linker, options).Expand("hub").ok());
  options.max_neighborhood = graph::kMaxCycleViewNodes + 1;
  EXPECT_TRUE(CycleExpander(kb, linker, options)
                  .Expand("hub")
                  .status()
                  .IsInvalidArgument());
}

TEST(EvaluationTest, CycleExpansionBeatsNoExpansion) {
  const auto& bed = SmallBed();
  const auto topics = bed.EvalTopics();
  auto base_eval = api::EvaluateSystem(bed.engine(), "no-expansion", topics);
  auto cycle_eval = api::EvaluateSystem(bed.engine(), "cycle", topics);
  ASSERT_TRUE(base_eval.ok());
  ASSERT_TRUE(cycle_eval.ok());
  EXPECT_EQ(base_eval->topics, bed.num_topics());
  // The headline result: structure-guided expansion improves Equation 1.
  EXPECT_GT(cycle_eval->mean_o, base_eval->mean_o + 0.05);
  EXPECT_GT(cycle_eval->mean_precision[2], base_eval->mean_precision[2]);
  EXPECT_GT(cycle_eval->mean_features, 0.0);
  EXPECT_DOUBLE_EQ(base_eval->mean_features, 0.0);
}

TEST(EvaluationTest, CycleExpansionCompetitiveWithDirectLink) {
  const auto& bed = SmallBed();
  const auto topics = bed.EvalTopics();
  auto direct_eval = api::EvaluateSystem(bed.engine(), "direct-link", topics);
  auto cycle_eval = api::EvaluateSystem(bed.engine(), "cycle", topics);
  ASSERT_TRUE(direct_eval.ok());
  ASSERT_TRUE(cycle_eval.ok());
  // Both systems should land in the same quality regime; the ablation
  // bench (E10) reports the exact ordering for the full-size track.
  EXPECT_GE(cycle_eval->mean_o, direct_eval->mean_o - 0.1);
}

}  // namespace
}  // namespace wqe::expansion
