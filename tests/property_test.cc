/// \file property_test.cc
/// \brief Property-style sweeps over randomized inputs: invariants that
/// must hold for every input, checked across seeds with TEST_P.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "graph/connected_components.h"
#include "graph/csr.h"
#include "graph/cycle_metrics.h"
#include "graph/cycles.h"
#include "graph/graph.h"
#include "graph/undirected_view.h"
#include "ir/eval.h"
#include "text/tokenizer.h"
#include "xml/xml_parser.h"

namespace wqe {
namespace {

/// Random article/category graph respecting the Figure 1 schema.
graph::PropertyGraph RandomSchemaGraph(uint64_t seed, uint32_t num_articles,
                                       uint32_t num_categories,
                                       uint32_t num_edges) {
  Rng rng(seed);
  graph::PropertyGraph g;
  for (uint32_t i = 0; i < num_articles; ++i) {
    g.AddNode(graph::NodeKind::kArticle, "a" + std::to_string(i));
  }
  for (uint32_t i = 0; i < num_categories; ++i) {
    g.AddNode(graph::NodeKind::kCategory, "c" + std::to_string(i));
  }
  uint32_t n = num_articles + num_categories;
  for (uint32_t e = 0; e < num_edges; ++e) {
    uint32_t u = rng.Uniform(n);
    uint32_t v = rng.Uniform(n);
    if (u == v) continue;
    graph::EdgeKind kind;
    if (g.IsArticle(u) && g.IsArticle(v)) {
      kind = rng.Bernoulli(0.9) ? graph::EdgeKind::kLink
                                : graph::EdgeKind::kRedirect;
    } else if (g.IsArticle(u) && g.IsCategory(v)) {
      kind = graph::EdgeKind::kBelongs;
    } else if (g.IsCategory(u) && g.IsCategory(v)) {
      kind = graph::EdgeKind::kInside;
    } else {
      continue;  // category -> article: not in the schema
    }
    (void)g.AddEdge(u, v, kind);  // duplicates rejected, fine
  }
  return g;
}

class RandomGraphProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomGraphProperty, UndirectedViewIsSymmetric) {
  graph::PropertyGraph g = RandomSchemaGraph(GetParam(), 30, 10, 150);
  graph::CsrGraph csr = graph::CsrGraph::Freeze(g);
  graph::UndirectedView view(csr);
  for (uint32_t u = 0; u < view.num_nodes(); ++u) {
    for (uint32_t v : view.Neighbors(u)) {
      EXPECT_TRUE(view.HasEdge(v, u)) << u << " " << v;
      EXPECT_EQ(view.Multiplicity(u, v), view.Multiplicity(v, u));
      EXPECT_GE(view.Multiplicity(u, v), 1u);
    }
  }
}

TEST_P(RandomGraphProperty, MultiplicitySumsToNonRedirectEdges) {
  graph::PropertyGraph g = RandomSchemaGraph(GetParam(), 25, 8, 120);
  graph::CsrGraph csr = graph::CsrGraph::Freeze(g);
  graph::UndirectedView view(csr);
  uint64_t total_multiplicity = 0;
  for (uint32_t u = 0; u < view.num_nodes(); ++u) {
    for (uint32_t v : view.Neighbors(u)) {
      if (v > u) total_multiplicity += view.Multiplicity(u, v);
    }
  }
  uint64_t non_redirect =
      g.num_edges() - g.CountEdges(graph::EdgeKind::kRedirect);
  EXPECT_EQ(total_multiplicity, non_redirect);
}

TEST_P(RandomGraphProperty, ComponentSizesPartitionNodes) {
  graph::PropertyGraph g = RandomSchemaGraph(GetParam(), 40, 12, 100);
  graph::CsrGraph csr = graph::CsrGraph::Freeze(g);
  graph::UndirectedView view(csr);
  graph::ComponentsResult cc = graph::ConnectedComponents(view);
  uint64_t total = 0;
  for (uint32_t s : cc.size) total += s;
  EXPECT_EQ(total, view.num_nodes());
  // Sizes are non-increasing by label.
  for (size_t i = 1; i < cc.size.size(); ++i) {
    EXPECT_LE(cc.size[i], cc.size[i - 1]);
  }
  // Every edge stays within one component.
  for (uint32_t u = 0; u < view.num_nodes(); ++u) {
    for (uint32_t v : view.Neighbors(u)) {
      EXPECT_EQ(cc.label[u], cc.label[v]);
    }
  }
}

TEST_P(RandomGraphProperty, EnumeratedCyclesAreValidAndUnique) {
  graph::PropertyGraph g = RandomSchemaGraph(GetParam(), 16, 6, 90);
  graph::CsrGraph csr = graph::CsrGraph::Freeze(g);
  graph::UndirectedView view(csr);
  graph::CycleEnumerator enumerator(view);
  std::set<std::vector<uint32_t>> canonical_seen;

  enumerator.Visit({}, [&](const std::vector<uint32_t>& cycle) {
    // Length bounds.
    EXPECT_GE(cycle.size(), 2u);
    EXPECT_LE(cycle.size(), 5u);
    // Distinct nodes.
    std::set<uint32_t> unique(cycle.begin(), cycle.end());
    EXPECT_EQ(unique.size(), cycle.size());
    // Consecutive adjacency, including the closing edge.
    for (size_t i = 0; i < cycle.size(); ++i) {
      uint32_t a = cycle[i];
      uint32_t b = cycle[(i + 1) % cycle.size()];
      if (cycle.size() == 2) {
        EXPECT_GE(view.Multiplicity(a, b), 2u);
      } else {
        EXPECT_TRUE(view.HasEdge(a, b));
      }
    }
    // Canonical form: starts at its minimum, second < last (length >= 3).
    EXPECT_EQ(cycle[0], *std::min_element(cycle.begin(), cycle.end()));
    if (cycle.size() >= 3) {
      EXPECT_LT(cycle[1], cycle.back());
    }
    // No duplicates across the enumeration.
    EXPECT_TRUE(canonical_seen.insert(cycle).second);
    return true;
  });
}

TEST_P(RandomGraphProperty, ChordlessCyclesHaveZeroDensity) {
  graph::PropertyGraph g = RandomSchemaGraph(GetParam(), 14, 6, 80);
  graph::CsrGraph csr = graph::CsrGraph::Freeze(g);
  graph::UndirectedView view(csr);
  graph::CycleEnumerator enumerator(view);
  graph::CycleEnumerationOptions options;
  options.chordless_only = true;
  options.min_length = 4;  // triangles are trivially chordless
  for (const graph::Cycle& local : enumerator.Enumerate(options)) {
    graph::Cycle cycle;
    for (graph::NodeId n : local.nodes) {
      cycle.nodes.push_back(view.ToGlobal(n));
    }
    graph::CycleMetrics m = ComputeCycleMetrics(csr, cycle);
    // A chordless cycle can exceed the minimum edge count only through
    // parallel edges (mutual links) on its own perimeter.
    EXPECT_LE(m.num_edges, 2 * m.length);
  }
}

TEST_P(RandomGraphProperty, ChordlessIsSubsetOfAll) {
  graph::PropertyGraph g = RandomSchemaGraph(GetParam(), 14, 6, 80);
  graph::CsrGraph csr = graph::CsrGraph::Freeze(g);
  graph::UndirectedView view(csr);
  graph::CycleEnumerator enumerator(view);
  graph::CycleEnumerationOptions all_options;
  graph::CycleEnumerationOptions chordless_options;
  chordless_options.chordless_only = true;
  size_t all = enumerator.Visit(
      all_options, [](const std::vector<uint32_t>&) { return true; });
  size_t chordless = enumerator.Visit(
      chordless_options, [](const std::vector<uint32_t>&) { return true; });
  EXPECT_LE(chordless, all);
}

TEST_P(RandomGraphProperty, CycleMetricsBounds) {
  graph::PropertyGraph g = RandomSchemaGraph(GetParam(), 16, 8, 100);
  graph::CsrGraph csr = graph::CsrGraph::Freeze(g);
  graph::UndirectedView view(csr);
  graph::CycleEnumerator enumerator(view);
  for (const graph::Cycle& local : enumerator.Enumerate({})) {
    graph::Cycle cycle;
    for (graph::NodeId n : local.nodes) {
      cycle.nodes.push_back(view.ToGlobal(n));
    }
    graph::CycleMetrics m = ComputeCycleMetrics(csr, cycle);
    EXPECT_EQ(m.num_articles + m.num_categories, m.length);
    EXPECT_GE(m.category_ratio, 0.0);
    EXPECT_LE(m.category_ratio, 1.0);
    EXPECT_GE(m.extra_edge_density, 0.0);
    EXPECT_LE(m.extra_edge_density, 1.0);
    EXPECT_LE(m.num_edges, m.max_edges);
  }
}

/// Scores every cycle of `view` with the ball-local scorer and with the
/// oracle on the cycle's global ids; every field must match exactly.
void ExpectScorerMatchesOracle(const graph::CsrGraph& csr,
                               const graph::UndirectedView& view) {
  const graph::BallCycleScorer scorer(view);
  size_t cycles = 0;
  graph::CycleEnumerator(view).Visit(
      {}, [&](const std::vector<uint32_t>& local) {
        graph::Cycle cycle;
        for (uint32_t l : local) cycle.nodes.push_back(view.ToGlobal(l));
        const graph::CycleMetrics want = ComputeCycleMetrics(csr, cycle);
        const graph::CycleMetrics got = scorer.Score(local);
        EXPECT_TRUE(got == want)
            << "length " << want.length << ": E " << got.num_edges << " vs "
            << want.num_edges << ", C " << got.num_categories << " vs "
            << want.num_categories;
        ++cycles;
        return true;
      });
  EXPECT_GT(cycles, 0u);
}

TEST_P(RandomGraphProperty, BallScorerMatchesOracle) {
  graph::PropertyGraph g = RandomSchemaGraph(GetParam(), 16, 8, 110);
  graph::CsrGraph csr = graph::CsrGraph::Freeze(g);
  ExpectScorerMatchesOracle(csr, graph::UndirectedView(csr));

  Rng rng(GetParam() + 1000);
  std::vector<graph::NodeId> subset;
  for (graph::NodeId u = 0; u < csr.num_nodes(); ++u) {
    if (rng.Bernoulli(0.75)) subset.push_back(u);
  }
  ExpectScorerMatchesOracle(csr, graph::UndirectedView(csr, subset));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

// ------------------------------------------------------------ text props

class RandomTextProperty : public ::testing::TestWithParam<uint64_t> {};

std::string RandomText(uint64_t seed, size_t len) {
  Rng rng(seed);
  static const char kAlphabet[] =
      "abc XYZ 09.,!?-'_()<>&\"\xC3\xA9";  // includes UTF-8 é
  std::string out;
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)]);
  }
  return out;
}

TEST_P(RandomTextProperty, TokenSpansAscendingNonOverlapping) {
  std::string input = RandomText(GetParam(), 200);
  text::Tokenizer tokenizer;
  auto tokens = tokenizer.Tokenize(input);
  size_t prev_end = 0;
  for (const text::Token& t : tokens) {
    EXPECT_GE(t.begin, prev_end);
    EXPECT_LT(t.begin, t.end);
    EXPECT_LE(t.end, input.size());
    EXPECT_FALSE(t.text.empty());
    prev_end = t.end;
  }
}

TEST_P(RandomTextProperty, NormalizeTitleIdempotent) {
  std::string input = RandomText(GetParam(), 80);
  std::string once = NormalizeTitle(input);
  EXPECT_EQ(NormalizeTitle(once), once);
  // Normalized titles never carry uppercase or double spaces.
  EXPECT_EQ(once.find("  "), std::string::npos);
  for (char c : once) {
    EXPECT_FALSE(c >= 'A' && c <= 'Z');
  }
}

TEST_P(RandomTextProperty, XmlEscapeDecodeRoundTrip) {
  std::string input = RandomText(GetParam(), 120);
  auto decoded = xml::DecodeXmlEntities(xml::EscapeXml(input));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, input);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTextProperty,
                         ::testing::Values(7, 11, 19, 23, 31, 57));

// ------------------------------------------------------------- eval props

class RandomRankingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomRankingProperty, MetricBoundsAndConsistency) {
  Rng rng(GetParam());
  std::vector<ir::ScoredDoc> results;
  ir::RelevantSet relevant;
  uint32_t n = 5 + rng.Uniform(30);
  for (uint32_t i = 0; i < n; ++i) {
    results.push_back({i, static_cast<double>(n - i)});
    if (rng.Bernoulli(0.3)) relevant.insert(i);
  }
  for (size_t r : {1, 5, 10, 15}) {
    double p = ir::PrecisionAtR(results, relevant, r);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    // P@r * r counts hits: must be (close to) an integer.
    double hits = p * static_cast<double>(r);
    EXPECT_NEAR(hits, std::round(hits), 1e-9);
    EXPECT_GE(ir::RecallAtR(results, relevant, r), 0.0);
    EXPECT_LE(ir::RecallAtR(results, relevant, r), 1.0);
    EXPECT_LE(ir::NdcgAtR(results, relevant, r), 1.0);
  }
  double o = ir::AverageTopRPrecision(results, relevant);
  EXPECT_GE(o, 0.0);
  EXPECT_LE(o, 1.0);
  EXPECT_LE(ir::AveragePrecision(results, relevant), 1.0 + 1e-12);
  // Recall is monotone in r.
  EXPECT_LE(ir::RecallAtR(results, relevant, 5),
            ir::RecallAtR(results, relevant, 10) + 1e-12);
}

TEST_P(RandomRankingProperty, SummarizeOrdersQuartiles) {
  Rng rng(GetParam());
  std::vector<double> values;
  uint32_t n = 1 + rng.Uniform(50);
  for (uint32_t i = 0; i < n; ++i) values.push_back(rng.NextDouble() * 10);
  FiveNumberSummary s = Summarize(values);
  EXPECT_LE(s.min, s.q1);
  EXPECT_LE(s.q1, s.median);
  EXPECT_LE(s.median, s.q3);
  EXPECT_LE(s.q3, s.max);
  EXPECT_EQ(s.n, values.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRankingProperty,
                         ::testing::Values(3, 9, 27, 81, 243));

}  // namespace
}  // namespace wqe
