/// \file cycles_test.cc
/// \brief Tests for cycle enumeration and cycle metrics — the paper's core
/// structural machinery.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "graph/ball_prune.h"
#include "graph/cycle_metrics.h"
#include "graph/csr.h"
#include "graph/cycles.h"
#include "graph/graph.h"
#include "graph/undirected_view.h"

namespace wqe::graph {
namespace {

/// Articles 0..n-1 with a single directed link per unordered pair
/// (i -> j for i < j): the undirected view is the complete graph K_n.
PropertyGraph CompleteArticleGraph(uint32_t n) {
  PropertyGraph g;
  for (uint32_t i = 0; i < n; ++i) {
    g.AddNode(NodeKind::kArticle, "a" + std::to_string(i));
  }
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      EXPECT_TRUE(g.AddEdge(i, j, EdgeKind::kLink).ok());
    }
  }
  return g;
}

size_t CountCyclesOfLength(const std::vector<Cycle>& cycles, uint32_t len) {
  size_t n = 0;
  for (const Cycle& c : cycles) {
    if (c.length() == len) ++n;
  }
  return n;
}

TEST(CycleEnumeratorTest, TriangleFoundOnce) {
  PropertyGraph g = CompleteArticleGraph(3);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  CycleEnumerationOptions options;
  std::vector<Cycle> cycles = e.Enumerate(options);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].length(), 3u);
  // Canonical form starts at the smallest node.
  EXPECT_EQ(cycles[0].nodes[0], 0u);
  EXPECT_LT(cycles[0].nodes[1], cycles[0].nodes[2]);
}

TEST(CycleEnumeratorTest, TwoCycleNeedsParallelEdges) {
  PropertyGraph g;
  NodeId a = g.AddNode(NodeKind::kArticle, "a");
  NodeId b = g.AddNode(NodeKind::kArticle, "b");
  ASSERT_TRUE(g.AddEdge(a, b, EdgeKind::kLink).ok());
  {
    CsrGraph csr = CsrGraph::Freeze(g);
    UndirectedView view(csr);
    CycleEnumerator e(view);
    EXPECT_TRUE(e.Enumerate({}).empty());  // single link: no 2-cycle
  }
  ASSERT_TRUE(g.AddEdge(b, a, EdgeKind::kLink).ok());
  {
    CsrGraph csr = CsrGraph::Freeze(g);
    UndirectedView view(csr);
    CycleEnumerator e(view);
    std::vector<Cycle> cycles = e.Enumerate({});
    ASSERT_EQ(cycles.size(), 1u);
    EXPECT_EQ(cycles[0].length(), 2u);
  }
}

TEST(CycleEnumeratorTest, RedirectNeverClosesCycle) {
  // Redirect r -> a plus link a -> r would be a parallel pair, but the
  // redirect edge is excluded from the cycle view (paper §4).
  PropertyGraph g;
  NodeId a = g.AddNode(NodeKind::kArticle, "a");
  NodeId r = g.AddNode(NodeKind::kArticle, "r");
  ASSERT_TRUE(g.AddEdge(r, a, EdgeKind::kRedirect).ok());
  ASSERT_TRUE(g.AddEdge(a, r, EdgeKind::kLink).ok());
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  EXPECT_TRUE(e.Enumerate({}).empty());
}

/// Number of distinct cycles of length k in K_n: C(n,k) * (k-1)! / 2.
size_t ExpectedCyclesInComplete(uint32_t n, uint32_t k) {
  auto choose = [](uint32_t a, uint32_t b) -> size_t {
    size_t r = 1;
    for (uint32_t i = 0; i < b; ++i) r = r * (a - i) / (i + 1);
    return r;
  };
  size_t fact = 1;
  for (uint32_t i = 2; i < k; ++i) fact *= i;
  return choose(n, k) * fact / 2;
}

class CompleteGraphCycleTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(CompleteGraphCycleTest, CountMatchesClosedForm) {
  auto [n, k] = GetParam();
  PropertyGraph g = CompleteArticleGraph(n);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  CycleEnumerationOptions options;
  options.min_length = k;
  options.max_length = k;
  std::vector<Cycle> cycles = e.Enumerate(options);
  EXPECT_EQ(cycles.size(), ExpectedCyclesInComplete(n, k))
      << "K_" << n << ", length " << k;
  // Each enumerated cycle must be a set of k distinct nodes.
  for (const Cycle& c : cycles) {
    std::set<NodeId> unique(c.nodes.begin(), c.nodes.end());
    EXPECT_EQ(unique.size(), k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KnCounts, CompleteGraphCycleTest,
    ::testing::Values(std::make_tuple(4u, 3u), std::make_tuple(4u, 4u),
                      std::make_tuple(5u, 3u), std::make_tuple(5u, 4u),
                      std::make_tuple(5u, 5u), std::make_tuple(6u, 3u),
                      std::make_tuple(6u, 4u), std::make_tuple(6u, 5u),
                      std::make_tuple(7u, 5u)));

TEST(CycleEnumeratorTest, SeedFilterKeepsOnlyTouchingCycles) {
  // Two disjoint triangles; seed in the first.
  PropertyGraph g;
  for (int i = 0; i < 6; ++i) {
    g.AddNode(NodeKind::kArticle, "a" + std::to_string(i));
  }
  for (auto [u, v] : {std::pair{0, 1}, {1, 2}, {0, 2},
                      {3, 4}, {4, 5}, {3, 5}}) {
    ASSERT_TRUE(g.AddEdge(u, v, EdgeKind::kLink).ok());
  }
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  CycleEnumerationOptions options;
  options.seeds = {0};
  std::vector<Cycle> cycles = e.Enumerate(options);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].nodes[0], 0u);
}

TEST(CycleEnumeratorTest, MaxCyclesCapsEnumeration) {
  PropertyGraph g = CompleteArticleGraph(7);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  CycleEnumerationOptions options;
  options.max_cycles = 5;
  EXPECT_EQ(e.Enumerate(options).size(), 5u);
}

TEST(CycleEnumeratorTest, VisitorCanAbort) {
  PropertyGraph g = CompleteArticleGraph(6);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  size_t seen = 0;
  e.Visit({}, [&](const std::vector<uint32_t>&) {
    ++seen;
    return seen < 3;
  });
  EXPECT_EQ(seen, 3u);
}

TEST(CycleEnumeratorTest, LengthBoundsRespected) {
  PropertyGraph g = CompleteArticleGraph(6);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  CycleEnumerationOptions options;
  options.min_length = 4;
  options.max_length = 5;
  std::vector<Cycle> cycles = e.Enumerate(options);
  EXPECT_EQ(CountCyclesOfLength(cycles, 3), 0u);
  EXPECT_EQ(CountCyclesOfLength(cycles, 4),
            ExpectedCyclesInComplete(6, 4));
  EXPECT_EQ(CountCyclesOfLength(cycles, 5),
            ExpectedCyclesInComplete(6, 5));
}

TEST(CycleEnumeratorTest, MixedArticleCategoryCycle) {
  // The paper's Figure 4(b) shape: venice - grand canal - palazzo bembo
  // via links and a shared category forms length-3 cycles.
  PropertyGraph g;
  NodeId q = g.AddNode(NodeKind::kArticle, "venice");
  NodeId x = g.AddNode(NodeKind::kArticle, "grand canal");
  NodeId c = g.AddNode(NodeKind::kCategory, "canals");
  ASSERT_TRUE(g.AddEdge(q, x, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(q, c, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(x, c, EdgeKind::kBelongs).ok());
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  std::vector<Cycle> cycles = e.Enumerate({});
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].length(), 3u);
}

// ------------------------------------------------------------ CycleMetrics

TEST(CycleMetricsTest, MaxEdgesFormula) {
  EXPECT_EQ(MaxCycleEdges(2, 0), 2u);
  EXPECT_EQ(MaxCycleEdges(2, 1), 4u);
  EXPECT_EQ(MaxCycleEdges(2, 2), 7u);
  EXPECT_EQ(MaxCycleEdges(3, 0), 6u);
  EXPECT_EQ(MaxCycleEdges(3, 2), 13u);
  EXPECT_EQ(MaxCycleEdges(0, 0), 0u);
  EXPECT_EQ(MaxCycleEdges(0, 3), 3u);
}

TEST(CycleMetricsTest, DenseTriangleWithCategory) {
  // a <-> b mutual links; both belong to c: E=4, M=4, density 1.
  PropertyGraph g;
  NodeId a = g.AddNode(NodeKind::kArticle, "a");
  NodeId b = g.AddNode(NodeKind::kArticle, "b");
  NodeId c = g.AddNode(NodeKind::kCategory, "c");
  ASSERT_TRUE(g.AddEdge(a, b, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(b, a, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(a, c, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(b, c, EdgeKind::kBelongs).ok());
  Cycle cycle;
  cycle.nodes = {a, b, c};
  CycleMetrics m = ComputeCycleMetrics(CsrGraph::Freeze(g), cycle);
  EXPECT_EQ(m.length, 3u);
  EXPECT_EQ(m.num_articles, 2u);
  EXPECT_EQ(m.num_categories, 1u);
  EXPECT_EQ(m.num_edges, 4u);
  EXPECT_EQ(m.max_edges, 4u);
  EXPECT_NEAR(m.category_ratio, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.extra_edge_density, 1.0);
}

TEST(CycleMetricsTest, PlainCategoryBridgedFourCycleHasZeroDensity) {
  // q - c1 - x - c2 - q with no chords: E = |C| = 4 → density 0.
  PropertyGraph g;
  NodeId q = g.AddNode(NodeKind::kArticle, "q");
  NodeId x = g.AddNode(NodeKind::kArticle, "x");
  NodeId c1 = g.AddNode(NodeKind::kCategory, "c1");
  NodeId c2 = g.AddNode(NodeKind::kCategory, "c2");
  ASSERT_TRUE(g.AddEdge(q, c1, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(x, c1, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(q, c2, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(x, c2, EdgeKind::kBelongs).ok());
  Cycle cycle;
  cycle.nodes = {q, c1, x, c2};
  CycleMetrics m = ComputeCycleMetrics(CsrGraph::Freeze(g), cycle);
  EXPECT_EQ(m.num_edges, 4u);
  EXPECT_EQ(m.max_edges, 7u);
  EXPECT_DOUBLE_EQ(m.extra_edge_density, 0.0);
  EXPECT_DOUBLE_EQ(m.category_ratio, 0.5);
}

TEST(CycleMetricsTest, ChordRaisesDensity) {
  // Same 4-cycle plus c1 inside c2: one extra edge → density 1/3.
  PropertyGraph g;
  NodeId q = g.AddNode(NodeKind::kArticle, "q");
  NodeId x = g.AddNode(NodeKind::kArticle, "x");
  NodeId c1 = g.AddNode(NodeKind::kCategory, "c1");
  NodeId c2 = g.AddNode(NodeKind::kCategory, "c2");
  ASSERT_TRUE(g.AddEdge(q, c1, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(x, c1, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(q, c2, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(x, c2, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(c1, c2, EdgeKind::kInside).ok());
  Cycle cycle;
  cycle.nodes = {q, c1, x, c2};
  CycleMetrics m = ComputeCycleMetrics(CsrGraph::Freeze(g), cycle);
  EXPECT_EQ(m.num_edges, 5u);
  EXPECT_NEAR(m.extra_edge_density, 1.0 / 3.0, 1e-12);
}

TEST(CycleMetricsTest, TwoCycleDensityGuard) {
  PropertyGraph g;
  NodeId a = g.AddNode(NodeKind::kArticle, "a");
  NodeId b = g.AddNode(NodeKind::kArticle, "b");
  ASSERT_TRUE(g.AddEdge(a, b, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(b, a, EdgeKind::kLink).ok());
  Cycle cycle;
  cycle.nodes = {a, b};
  CycleMetrics m = ComputeCycleMetrics(CsrGraph::Freeze(g), cycle);
  EXPECT_EQ(m.num_edges, 2u);
  EXPECT_EQ(m.max_edges, 2u);  // M == |C|: density undefined → 0
  EXPECT_DOUBLE_EQ(m.extra_edge_density, 0.0);
}

TEST(CycleMetricsTest, RedirectEdgesExcludedFromInducedCount) {
  PropertyGraph g;
  NodeId a = g.AddNode(NodeKind::kArticle, "a");
  NodeId b = g.AddNode(NodeKind::kArticle, "b");
  ASSERT_TRUE(g.AddEdge(a, b, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(b, a, EdgeKind::kRedirect).ok());
  EXPECT_EQ(CountInducedEdges(CsrGraph::Freeze(g), {a, b}), 1u);
}

TEST(CycleMetricsTest, BallScorerMatchesOracleOnMutualAndRedirectPairs) {
  // The pairs whose table entry is not simply "adjacent or not": mutual
  // links a <-> b (2), mutual inside edges c1 <-> c2 (1, counted once per
  // unordered pair), and a redirect d -> b next to the link b -> d (1,
  // the redirect excluded).  Node x sits outside the subset view, so its
  // local ids differ from the global ones.
  PropertyGraph g;
  NodeId x = g.AddNode(NodeKind::kArticle, "x");
  NodeId a = g.AddNode(NodeKind::kArticle, "a");
  NodeId b = g.AddNode(NodeKind::kArticle, "b");
  NodeId d = g.AddNode(NodeKind::kArticle, "d");
  NodeId c1 = g.AddNode(NodeKind::kCategory, "c1");
  NodeId c2 = g.AddNode(NodeKind::kCategory, "c2");
  ASSERT_TRUE(g.AddEdge(a, b, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(b, a, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(c1, c2, EdgeKind::kInside).ok());
  ASSERT_TRUE(g.AddEdge(c2, c1, EdgeKind::kInside).ok());
  ASSERT_TRUE(g.AddEdge(b, d, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(d, b, EdgeKind::kRedirect).ok());
  ASSERT_TRUE(g.AddEdge(a, c1, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(b, c1, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(a, c2, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(d, c2, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(x, a, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(x, c1, EdgeKind::kBelongs).ok());
  CsrGraph csr = CsrGraph::Freeze(g);

  for (const UndirectedView& view :
       {UndirectedView(csr), UndirectedView(csr, {a, b, d, c1, c2})}) {
    const BallCycleScorer scorer(view);
    size_t cycles = 0;
    CycleEnumerator(view).Visit({}, [&](const std::vector<uint32_t>& local) {
      Cycle cycle;
      for (uint32_t l : local) cycle.nodes.push_back(view.ToGlobal(l));
      EXPECT_TRUE(scorer.Score(local) == ComputeCycleMetrics(csr, cycle));
      ++cycles;
      return true;
    });
    EXPECT_GE(cycles, 4u);

    auto local = [&](std::vector<NodeId> nodes) {
      for (NodeId& n : nodes) n = view.ToLocal(n);
      return nodes;
    };
    // a<->b (2) + c1<->c2 (1) + a-c1, b-c1, a-c2 (3).
    CycleMetrics mixed = scorer.Score(local({a, b, c1, c2}));
    EXPECT_EQ(mixed.num_edges, 6u);
    EXPECT_EQ(mixed.num_categories, 2u);
    // a<->b (2) + b->d (1; the redirect is excluded) + d-c2, a-c2 (2).
    EXPECT_EQ(scorer.Score(local({a, b, d, c2})).num_edges, 5u);
    EXPECT_EQ(scorer.Score(local({a, b})).num_edges, 2u);
  }
}

TEST(ReciprocalLinkRateTest, CountsMutualFraction) {
  PropertyGraph g;
  for (int i = 0; i < 4; ++i) {
    g.AddNode(NodeKind::kArticle, "a" + std::to_string(i));
  }
  // Pairs: (0,1) mutual, (0,2) single, (1,3) single → rate 1/3.
  ASSERT_TRUE(g.AddEdge(0, 1, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(1, 0, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(1, 3, EdgeKind::kLink).ok());
  EXPECT_NEAR(ReciprocalLinkRate(CsrGraph::Freeze(g)), 1.0 / 3.0, 1e-12);
}

TEST(ReciprocalLinkRateTest, EmptyGraphIsZero) {
  PropertyGraph g;
  EXPECT_DOUBLE_EQ(ReciprocalLinkRate(CsrGraph::Freeze(g)), 0.0);
}

// ------------------------------------------------- random test graphs

/// Hub-skewed random article/category graph: quadratically biased
/// endpoints give the few hub nodes most of the degree mass.
PropertyGraph SkewedSchemaGraph(uint64_t seed, uint32_t num_articles,
                                uint32_t num_categories, uint32_t num_edges) {
  Rng rng(seed);
  PropertyGraph g;
  for (uint32_t i = 0; i < num_articles; ++i) {
    g.AddNode(NodeKind::kArticle, "a" + std::to_string(i));
  }
  for (uint32_t i = 0; i < num_categories; ++i) {
    g.AddNode(NodeKind::kCategory, "c" + std::to_string(i));
  }
  const uint32_t n = num_articles + num_categories;
  auto skewed = [&] {
    uint64_t x = rng.Uniform(n);
    return static_cast<uint32_t>(x * x / n);  // quadratic bias toward hubs
  };
  for (uint32_t e = 0; e < num_edges; ++e) {
    uint32_t u = skewed();
    uint32_t v = rng.Uniform(n);
    if (u == v) continue;
    if (g.IsArticle(u) && g.IsArticle(v)) {
      (void)g.AddEdge(u, v, EdgeKind::kLink);
    } else if (g.IsArticle(u) && g.IsCategory(v)) {
      (void)g.AddEdge(u, v, EdgeKind::kBelongs);
    } else if (g.IsCategory(u) && g.IsCategory(v)) {
      (void)g.AddEdge(u, v, EdgeKind::kInside);
    }
  }
  return g;
}

std::vector<std::vector<NodeId>> CycleNodes(const std::vector<Cycle>& cycles) {
  std::vector<std::vector<NodeId>> out;
  out.reserve(cycles.size());
  for (const Cycle& c : cycles) out.push_back(c.nodes);
  return out;
}

// ---- Ball pruning: pruned enumeration must be bit-identical to unpruned
// (cycle set, order, truncation, visitor-abort prefix) — see
// graph/ball_prune.h for why the surviving subgraph is a cycle superset.

/// SkewedSchemaGraph decorated with peelable pendant chains off every
/// fourth node: structure the pruning pass genuinely removes, so these
/// properties don't vacuously pass on an all-alive graph.
PropertyGraph SkewedGraphWithPendants(uint64_t seed, uint32_t num_articles,
                                      uint32_t num_categories,
                                      uint32_t num_edges) {
  PropertyGraph g = SkewedSchemaGraph(seed, num_articles, num_categories,
                                      num_edges);
  const uint32_t core = g.num_nodes();
  for (uint32_t anchor = 0; anchor < core; anchor += 4) {
    NodeId prev = anchor;
    for (int hop = 0; hop < 3; ++hop) {
      NodeId leaf = g.AddNode(NodeKind::kArticle,
                              "p" + std::to_string(anchor) + "_" +
                                  std::to_string(hop));
      if (g.IsArticle(prev)) {
        EXPECT_TRUE(g.AddEdge(prev, leaf, EdgeKind::kLink).ok());
      } else {
        EXPECT_TRUE(g.AddEdge(leaf, prev, EdgeKind::kBelongs).ok());
      }
      prev = leaf;
    }
  }
  return g;
}

class PrunedIdentityProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrunedIdentityProperty, PrunedMatchesUnprunedEverywhere) {
  PropertyGraph g = SkewedGraphWithPendants(GetParam(), 26, 9, 260);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);

  // The decoration must actually be prunable — otherwise the identity
  // below proves nothing.
  std::vector<uint64_t> alive;
  ASSERT_TRUE(PruneBall(view, {}, 5, &alive).pruned_any());

  std::vector<CycleEnumerationOptions> configs;
  for (uint32_t min_len : {2u, 3u, 4u}) {
    for (uint32_t max_len : {2u, 3u, 5u}) {
      if (max_len < min_len) continue;
      for (bool chordless : {false, true}) {
        for (size_t cap : {size_t{0}, size_t{1}, size_t{5}, size_t{17}}) {
          CycleEnumerationOptions c;
          c.min_length = min_len;
          c.max_length = max_len;
          c.chordless_only = chordless;
          c.max_cycles = cap;
          configs.push_back(c);
          CycleEnumerationOptions seeded = c;
          seeded.seeds = {0, 5, 11};
          configs.push_back(seeded);
        }
      }
    }
  }

  for (const CycleEnumerationOptions& config : configs) {
    CycleEnumerationOptions unpruned = config;
    unpruned.prune_ball = false;
    std::vector<std::vector<NodeId>> want = CycleNodes(e.Enumerate(unpruned));

    CycleEnumerationOptions pruned = config;
    pruned.prune_ball = true;
    EXPECT_EQ(want, CycleNodes(e.Enumerate(pruned)))
        << "lengths=" << config.min_length << ".." << config.max_length
        << " chordless=" << config.chordless_only
        << " cap=" << config.max_cycles << " seeds=" << config.seeds.size();
  }
}

TEST_P(PrunedIdentityProperty, AbortPrefixMatchesUnpruned) {
  PropertyGraph g = SkewedGraphWithPendants(GetParam(), 24, 8, 240);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);

  // An aborting visitor must see the exact same prefix with pruning on.
  auto prefix_of = [&](bool prune, size_t abort_after) {
    CycleEnumerationOptions options;
    options.prune_ball = prune;
    std::vector<std::vector<uint32_t>> seen;
    e.Visit(options, [&](const std::vector<uint32_t>& cycle) {
      seen.push_back(cycle);
      return seen.size() < abort_after;
    });
    return seen;
  };
  for (size_t abort_after : {size_t{1}, size_t{4}, size_t{9}}) {
    EXPECT_EQ(prefix_of(false, abort_after), prefix_of(true, abort_after));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrunedIdentityProperty,
                         ::testing::Values(7, 19, 42, 1234, 90210));

// ---- Order-exact reference.  The DFS fuses its last level and cuts
// seedless paths by seed distance; neither may change a single emission
// or its position.  Set-based or count-based checks would miss an
// order-only change, so the emitted stream is compared element by
// element against the plain DFS below.

/// The cycle DFS without either shortcut: one recursive call per
/// extension, the closing edge found by binary search in the row, the
/// seed filter a scan of the path, no pruning and no cut.  Returns the
/// emitted local-id paths in emission order, truncated to `max_cycles`.
std::vector<std::vector<uint32_t>> ReferenceCyclePaths(
    const UndirectedView& view, const CycleEnumerationOptions& options) {
  const uint32_t n = view.num_nodes();
  std::vector<bool> is_seed(n, false);
  for (NodeId g : options.seeds) {
    const uint32_t local = view.ToLocal(g);
    if (local != UINT32_MAX) is_seed[local] = true;
  }
  std::vector<std::vector<uint32_t>> out;
  std::vector<uint32_t> path;
  auto emit = [&] {
    if (!options.seeds.empty() &&
        std::none_of(path.begin(), path.end(),
                     [&](uint32_t v) { return is_seed[v]; })) {
      return;
    }
    if (options.chordless_only && path.size() >= 4) {
      for (size_t i = 0; i < path.size(); ++i) {
        for (size_t j = i + 2; j < path.size(); ++j) {
          if (i == 0 && j == path.size() - 1) continue;
          if (view.HasEdge(path[i], path[j])) return;
        }
      }
    }
    out.push_back(path);
  };

  if (options.min_length <= 2 && options.max_length >= 2) {
    for (uint32_t u = 0; u < n; ++u) {
      std::span<const uint32_t> row = view.Neighbors(u);
      std::span<const uint32_t> mults = view.Multiplicities(u);
      for (size_t i = 0; i < row.size(); ++i) {
        if (row[i] > u && mults[i] >= 2) {
          path = {u, row[i]};
          emit();
        }
      }
    }
  }
  std::vector<bool> on_path(n, false);
  std::function<void(uint32_t, uint32_t)> extend = [&](uint32_t start,
                                                       uint32_t u) {
    std::span<const uint32_t> row = view.Neighbors(u);
    auto suffix = std::upper_bound(row.begin(), row.end(), start);
    if (suffix != row.begin() && *(suffix - 1) == start && path.size() >= 3 &&
        path.size() >= options.min_length && path[1] < path.back()) {
      emit();
    }
    if (path.size() >= options.max_length) return;
    for (auto it = suffix; it != row.end(); ++it) {
      if (on_path[*it]) continue;
      path.push_back(*it);
      on_path[*it] = true;
      extend(start, *it);
      on_path[*it] = false;
      path.pop_back();
    }
  };
  if (options.max_length >= 3) {
    for (uint32_t s = 0; s < n; ++s) {
      path.assign(1, s);
      on_path[s] = true;
      extend(s, s);
      on_path[s] = false;
    }
  }
  if (options.max_cycles != 0 && out.size() > options.max_cycles) {
    out.resize(options.max_cycles);
  }
  return out;
}

/// Uniform random article/category graph; a quarter of the article links
/// are mutual, so length-2 cycles occur too.
PropertyGraph UniformSchemaGraph(uint64_t seed, uint32_t num_articles,
                                 uint32_t num_categories, uint32_t num_edges) {
  Rng rng(seed);
  PropertyGraph g;
  for (uint32_t i = 0; i < num_articles; ++i) {
    g.AddNode(NodeKind::kArticle, "a" + std::to_string(i));
  }
  for (uint32_t i = 0; i < num_categories; ++i) {
    g.AddNode(NodeKind::kCategory, "c" + std::to_string(i));
  }
  const uint32_t n = num_articles + num_categories;
  for (uint32_t e = 0; e < num_edges; ++e) {
    const uint32_t u = rng.Uniform(n);
    const uint32_t v = rng.Uniform(n);
    if (u == v) continue;
    if (g.IsArticle(u) && g.IsArticle(v)) {
      (void)g.AddEdge(u, v, EdgeKind::kLink);
      if (rng.Uniform(4) == 0) (void)g.AddEdge(v, u, EdgeKind::kLink);
    } else if (g.IsArticle(u)) {
      (void)g.AddEdge(u, v, EdgeKind::kBelongs);
    } else if (g.IsArticle(v)) {
      (void)g.AddEdge(v, u, EdgeKind::kBelongs);
    } else {
      (void)g.AddEdge(u, v, EdgeKind::kInside);
    }
  }
  return g;
}

/// Runs `Visit` over every length window in 2..5, each seed set,
/// chordless on and off, `max_cycles` in {0, 1, 5, 17}, and pruning on
/// and off, and checks each emitted stream and returned count against
/// `ReferenceCyclePaths`.
/// Returns for how many (window, seeds, chordless) configurations the
/// reference emits anything, so callers can rule out a vacuous pass.
size_t ExpectVisitMatchesReference(
    const UndirectedView& view,
    const std::vector<std::vector<NodeId>>& seed_sets) {
  CycleEnumerator e(view);
  size_t nonempty = 0;
  for (uint32_t min_len = 2; min_len <= 5; ++min_len) {
    for (uint32_t max_len = min_len; max_len <= 5; ++max_len) {
      for (const std::vector<NodeId>& seeds : seed_sets) {
        for (bool chordless : {false, true}) {
          CycleEnumerationOptions base;
          base.min_length = min_len;
          base.max_length = max_len;
          base.seeds = seeds;
          base.chordless_only = chordless;
          const std::vector<std::vector<uint32_t>> full =
              ReferenceCyclePaths(view, base);
          if (!full.empty()) ++nonempty;
          for (size_t cap : {size_t{0}, size_t{1}, size_t{5}, size_t{17}}) {
            std::vector<std::vector<uint32_t>> want = full;
            if (cap != 0 && want.size() > cap) want.resize(cap);
            for (bool prune : {false, true}) {
              CycleEnumerationOptions options = base;
              options.max_cycles = cap;
              options.prune_ball = prune;
              std::vector<std::vector<uint32_t>> got;
              const size_t visited =
                  e.Visit(options, [&](const std::vector<uint32_t>& p) {
                    got.push_back(p);
                    return true;
                  });
              const auto [got_end, want_end] = std::mismatch(
                  got.begin(), got.end(), want.begin(), want.end());
              if (got_end == got.end() && want_end == want.end() &&
                  visited == want.size()) {
                continue;
              }
              ADD_FAILURE()
                  << "lengths=" << min_len << ".." << max_len
                  << " seeds=" << seeds.size() << " chordless=" << chordless
                  << " cap=" << cap << " prune=" << prune << ": got "
                  << got.size() << " paths (Visit returned " << visited
                  << "), want " << want.size()
                  << "; first difference at index "
                  << (got_end - got.begin());
              return nonempty;
            }
          }
        }
      }
    }
  }
  return nonempty;
}

class OrderExactReferenceProperty
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OrderExactReferenceProperty, UniformRandomGraph) {
  PropertyGraph g = UniformSchemaGraph(GetParam(), 16, 6, 90);
  CsrGraph csr = CsrGraph::Freeze(g);
  // 10 length windows x 3 seed sets x chordless on/off.
  EXPECT_GT(ExpectVisitMatchesReference(UndirectedView(csr),
                                        {{}, {3}, {0, 5, 11}}),
            40u);
}

TEST_P(OrderExactReferenceProperty, HubSkewedPendantBall) {
  PropertyGraph g = SkewedGraphWithPendants(GetParam(), 18, 6, 150);
  CsrGraph csr = CsrGraph::Freeze(g);
  // A query ball: the slice without every third node, so seeds 2 and 5
  // fall outside it.
  std::vector<NodeId> members;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (n % 3 != 2) members.push_back(n);
  }
  // 10 length windows x 5 seed sets x chordless on/off; nothing qualifies
  // with seeds {2, 5}.
  EXPECT_GT(ExpectVisitMatchesReference(
                UndirectedView(csr, members),
                {{}, {3}, {0, 4, 9}, {2, 5, 6}, {2, 5}}),
            50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderExactReferenceProperty,
                         ::testing::Values(7, 19, 42));

TEST(OrderExactReferenceTest, SeedAtTheCutBoundaryStillCloses) {
  // The 5-cycle 0-1-2-3-4 with its only seed at 3.  From start 0 the path
  // 0,1 holds no seed and has d(1) + d(0) = 2 + 2 = 4 = max_length + 1 -
  // |path|, exactly the cut's bound, as has 0,1,2 with 1 + 2 = 3; the
  // cycle must still be emitted.
  PropertyGraph g;
  for (int i = 0; i < 5; ++i) {
    g.AddNode(NodeKind::kArticle, "a" + std::to_string(i));
  }
  for (auto [u, v] : {std::pair{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}) {
    ASSERT_TRUE(g.AddEdge(u, v, EdgeKind::kLink).ok());
  }
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerationOptions options;
  options.seeds = {3};
  const std::vector<std::vector<uint32_t>> want = {{0, 1, 2, 3, 4}};
  ASSERT_EQ(ReferenceCyclePaths(view, options), want);
  // Only the windows reaching length 5 emit it, chordless or not.
  EXPECT_EQ(ExpectVisitMatchesReference(view, {{3}}), 8u);
}

// -------------------------------- deadlines / cooperative cancellation
//
// The contract: an enumeration interrupted by an expired deadline or a
// cancel request emits a *prefix* of the full emission order — never a
// reordered or gap-ridden subset (the same abort-prefix identity the
// visitor-abort path guarantees).

bool IsPrefixOf(const std::vector<std::vector<NodeId>>& prefix,
                const std::vector<std::vector<NodeId>>& full) {
  return prefix.size() <= full.size() &&
         std::equal(prefix.begin(), prefix.end(), full.begin());
}

TEST(DeadlineCycleTest, ExpiredDeadlineEmitsNothing) {
  PropertyGraph g = SkewedSchemaGraph(7, 26, 9, 260);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  ASSERT_FALSE(e.Enumerate({}).empty());  // the graph does have cycles

  common::ExecContext ctx;
  ctx.deadline = common::Deadline::AfterMillis(0.0);
  common::ScopedExecContext scope(ctx);
  size_t visited = e.Visit({}, [](const std::vector<uint32_t>&) {
    ADD_FAILURE() << "emitted a cycle under an already-expired deadline";
    return true;
  });
  EXPECT_EQ(visited, 0u);
  EXPECT_TRUE(common::ExecStatus().IsDeadlineExceeded());
}

TEST(DeadlineCycleTest, CancelMidRunPreservesPrefixIdentity) {
  // Wherever a cancel request lands, the emitted sequence must be a
  // prefix of the full order.
  PropertyGraph g = SkewedSchemaGraph(42, 34, 11, 420);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  const std::vector<std::vector<NodeId>> full = CycleNodes(e.Enumerate({}));
  ASSERT_GT(full.size(), 5000u);

  // Visits under the installed context, collecting global-id cycles;
  // `on_emit` sees the count emitted so far.
  auto visit = [&](const std::function<void(size_t)>& on_emit) {
    std::vector<std::vector<NodeId>> seen;
    const size_t visited = e.Visit({}, [&](const std::vector<uint32_t>& c) {
      std::vector<NodeId> nodes;
      nodes.reserve(c.size());
      for (uint32_t l : c) nodes.push_back(view.ToGlobal(l));
      seen.push_back(std::move(nodes));
      on_emit(seen.size());
      return true;
    });
    EXPECT_EQ(visited, seen.size());
    return seen;
  };

  // A helper thread requests cancellation at staggered offsets while the
  // enumeration runs: the cut point depends on timing, the prefix
  // property does not.
  for (int delay_us : {0, 50, 200, 1000}) {
    common::CancelSource source;
    common::ExecContext ctx;
    ctx.cancel = source.token();
    common::ScopedExecContext scope(ctx);
    std::thread canceller([&source, delay_us] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      source.RequestCancel();
    });
    const std::vector<std::vector<NodeId>> seen = visit([](size_t) {});
    canceller.join();
    EXPECT_TRUE(IsPrefixOf(seen, full))
        << "delay_us=" << delay_us << " seen=" << seen.size() << "/"
        << full.size();
    EXPECT_TRUE(common::ExecStatus().IsCancelled());
  }

  // The visitor itself requests cancellation at its k-th emission, and
  // the run stops at the next cooperative check: a cut point that does
  // not depend on timing, so a second run stops at the same length.
  for (size_t k : {size_t{1}, size_t{400}, size_t{5000}}) {
    std::vector<size_t> lengths;
    for (int repeat = 0; repeat < 2; ++repeat) {
      common::CancelSource source;
      common::ExecContext ctx;
      ctx.cancel = source.token();
      common::ScopedExecContext scope(ctx);
      const std::vector<std::vector<NodeId>> seen =
          visit([&](size_t emitted) {
            if (emitted == k) source.RequestCancel();
          });
      EXPECT_TRUE(IsPrefixOf(seen, full)) << "k=" << k;
      EXPECT_GE(seen.size(), k);
      EXPECT_LT(seen.size(), full.size()) << "k=" << k;
      EXPECT_TRUE(common::ExecStatus().IsCancelled()) << "k=" << k;
      lengths.push_back(seen.size());
    }
    EXPECT_EQ(lengths[0], lengths[1]) << "k=" << k;
  }
}

TEST(EnumerateCyclesHelperTest, InducedConvenienceWrapper) {
  PropertyGraph g = CompleteArticleGraph(5);
  CycleEnumerationOptions options;
  options.min_length = 3;
  options.max_length = 3;
  // Restrict to 4 of the 5 nodes: C(4,3) = 4 triangles.
  std::vector<Cycle> cycles =
      EnumerateCycles(CsrGraph::Freeze(g), {0, 1, 2, 3}, options);
  EXPECT_EQ(cycles.size(), 4u);
  for (const Cycle& c : cycles) {
    for (NodeId n : c.nodes) EXPECT_LT(n, 4u);
  }
}

}  // namespace
}  // namespace wqe::graph
