/// \file ball_prune_test.cc
/// \brief Unit tests for the semijoin-guided ball-pruning kernel
/// (graph/ball_prune.h): peeling fixed point, distance filter, the
/// iterated BFS ↔ re-peel interaction, and degenerate balls.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "graph/ball_prune.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/undirected_view.h"
#include "obs/metrics.h"

namespace wqe::graph {
namespace {

PropertyGraph ArticleGraph(uint32_t n) {
  PropertyGraph g;
  for (uint32_t i = 0; i < n; ++i) {
    g.AddNode(NodeKind::kArticle, "a" + std::to_string(i));
  }
  return g;
}

std::vector<uint32_t> AliveLocals(const std::vector<uint64_t>& bits,
                                  uint32_t n) {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < n; ++i) {
    if (BallPruneAlive(bits.data(), i)) out.push_back(i);
  }
  return out;
}

TEST(BallPruneTest, PathGraphPeelsToNothing) {
  // 0 - 1 - 2 - 3: every node ends up degree-deficient as the leaves
  // cascade inward; no cycle exists, so nothing may survive.
  PropertyGraph g = ArticleGraph(4);
  for (uint32_t i = 0; i + 1 < 4; ++i) {
    ASSERT_TRUE(g.AddEdge(i, i + 1, EdgeKind::kLink).ok());
  }
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  std::vector<uint64_t> alive;
  BallPruneStats stats = PruneBall(view, {}, 5, &alive);
  EXPECT_EQ(stats.num_nodes, 4u);
  EXPECT_EQ(stats.num_alive, 0u);
  EXPECT_TRUE(AliveLocals(alive, 4).empty());
  EXPECT_DOUBLE_EQ(stats.survivor_fraction(), 0.0);
}

TEST(BallPruneTest, TriangleWithTailKeepsOnlyTriangle) {
  // Triangle 0-1-2 with tail 2-3-4: the tail peels (4 is a leaf, then 3),
  // the triangle's effective degrees stay at 2.
  PropertyGraph g = ArticleGraph(5);
  ASSERT_TRUE(g.AddEdge(0, 1, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(2, 0, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(3, 4, EdgeKind::kLink).ok());
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  std::vector<uint64_t> alive;
  BallPruneStats stats = PruneBall(view, {}, 5, &alive);
  EXPECT_EQ(stats.num_alive, 3u);
  EXPECT_EQ(AliveLocals(alive, 5), (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_TRUE(stats.pruned_any());
}

TEST(BallPruneTest, ParallelEdgePairSurvivesPeeling) {
  // Mutual links 0 <-> 1 are a length-2 cycle: multiplicity 2 counts as
  // two cycle-usable slots, so neither node peels; pendant 2 does.
  PropertyGraph g = ArticleGraph(3);
  ASSERT_TRUE(g.AddEdge(0, 1, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(1, 0, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, EdgeKind::kLink).ok());
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  std::vector<uint64_t> alive;
  BallPruneStats stats = PruneBall(view, {}, 5, &alive);
  EXPECT_EQ(AliveLocals(alive, 3), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(stats.num_alive, 2u);
}

TEST(BallPruneTest, DistanceFilterIteratesWithRepeeling) {
  // Seed s=0 with a mutual-link partner p=1 (a 2-cycle), chain
  // s-a-t1, triangle t1-t2-t3.  At L=4 the BFS radius is 2: t2 and t3
  // sit at distance 3 and die, which breaks the triangle and cascades
  // the re-peel through t1 and a — only {s, p} can touch a cycle of
  // length <= 4 through s.
  PropertyGraph g = ArticleGraph(6);  // 0=s 1=p 2=a 3=t1 4=t2 5=t3
  ASSERT_TRUE(g.AddEdge(0, 1, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(1, 0, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(3, 4, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(4, 5, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(5, 3, EdgeKind::kLink).ok());
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);

  std::vector<uint64_t> alive;
  BallPruneStats stats = PruneBall(view, {0}, 4, &alive);
  EXPECT_EQ(AliveLocals(alive, 6), (std::vector<uint32_t>{0, 1}));
  EXPECT_GE(stats.rounds, 2u);  // the second BFS proves the fixed point

  // At L=5 nothing changes (radius 2 still misses t2/t3); at L=6 the
  // radius reaches distance 3 and the triangle would survive — but the
  // enumerator's bound is 5, so only L <= 5 matters in production.
  BallPruneStats wide = PruneBall(view, {0}, 6, &alive);
  EXPECT_EQ(wide.num_alive, 6u);
}

TEST(BallPruneTest, SeededFilterKeepsUnseededCycleOut) {
  // Two disjoint triangles; only the one containing the seed survives.
  PropertyGraph g = ArticleGraph(6);
  for (uint32_t base : {0u, 3u}) {
    ASSERT_TRUE(g.AddEdge(base, base + 1, EdgeKind::kLink).ok());
    ASSERT_TRUE(g.AddEdge(base + 1, base + 2, EdgeKind::kLink).ok());
    ASSERT_TRUE(g.AddEdge(base + 2, base, EdgeKind::kLink).ok());
  }
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  std::vector<uint64_t> alive;
  BallPruneStats stats = PruneBall(view, {1}, 5, &alive);
  EXPECT_EQ(AliveLocals(alive, 6), (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(stats.num_alive, 3u);
}

TEST(BallPruneTest, EmptyBall) {
  PropertyGraph g;
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  std::vector<uint64_t> alive = {0xdeadbeef};  // must be cleared
  BallPruneStats stats = PruneBall(view, {}, 5, &alive);
  EXPECT_EQ(stats.num_nodes, 0u);
  EXPECT_EQ(stats.num_alive, 0u);
  EXPECT_TRUE(alive.empty());
  EXPECT_DOUBLE_EQ(stats.survivor_fraction(), 1.0);  // nothing was pruned
}

TEST(BallPruneTest, AllQueryNodeBall) {
  // Every node is a seed and every node is on a triangle: nothing dies,
  // and the subset view exercises the global -> local seed mapping.
  PropertyGraph g = ArticleGraph(4);
  ASSERT_TRUE(g.AddEdge(0, 1, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(2, 0, EdgeKind::kLink).ok());
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr, {0, 1, 2});
  std::vector<uint64_t> alive;
  BallPruneStats stats = PruneBall(view, {0, 1, 2}, 5, &alive);
  EXPECT_EQ(stats.num_nodes, 3u);
  EXPECT_EQ(stats.num_alive, 3u);
  EXPECT_FALSE(stats.pruned_any());
}

TEST(BallPruneTest, SeedsOutsideViewKillEverything) {
  // Seeds were requested but none is in the ball: no qualifying cycle
  // can exist, so the whole ball is pruned (and enumeration with the
  // same seeds would emit nothing — identical output, zero work).
  PropertyGraph g = ArticleGraph(4);
  ASSERT_TRUE(g.AddEdge(0, 1, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(2, 0, EdgeKind::kLink).ok());
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr, {0, 1, 2});
  std::vector<uint64_t> alive;
  BallPruneStats stats = PruneBall(view, {3}, 5, &alive);
  EXPECT_EQ(stats.num_alive, 0u);
}

TEST(BallPruneTest, SeedDistanceIsTheFinalRoundsBfsLevel) {
  // 5-cycle 0-1-2-3-4 seeded at 0, a pendant 5 off 2 (peeled before any
  // BFS) and a node 6 on a triangle with 2 and 3, at distance 3 > ⌊5/2⌋
  // (killed by the first round, so the second round never reaches it).
  PropertyGraph g = ArticleGraph(7);
  for (auto [u, v] : {std::pair{0u, 1u}, {1u, 2u}, {2u, 3u}, {3u, 4u},
                      {4u, 0u}, {2u, 5u}, {2u, 6u}, {3u, 6u}}) {
    ASSERT_TRUE(g.AddEdge(u, v, EdgeKind::kLink).ok());
  }
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  std::vector<uint64_t> alive;
  std::vector<uint32_t> distance = {42};  // must be overwritten
  PruneBall(view, {0}, 5, &alive, &distance);
  EXPECT_EQ(AliveLocals(alive, 7), (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(distance, (std::vector<uint32_t>{0, 1, 2, 2, 1, UINT32_MAX,
                                             UINT32_MAX}));

  // Without seeds there is no BFS and so no distance.
  PruneBall(view, {}, 5, &alive, &distance);
  EXPECT_TRUE(distance.empty());
}

TEST(BallPruneTest, SurvivorFractionExportedToGlobalRegistry) {
  PropertyGraph g = ArticleGraph(3);
  ASSERT_TRUE(g.AddEdge(0, 1, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(2, 0, EdgeKind::kLink).ok());
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  std::vector<uint64_t> alive;
  obs::Histogram* fraction = obs::MetricsRegistry::Global().GetHistogram(
      "wqe.graph.prune_survivor_fraction");
  obs::Histogram* latency =
      obs::MetricsRegistry::Global().GetHistogram("wqe.graph.prune_ms");
  const uint64_t fraction_before = fraction->count();
  const uint64_t latency_before = latency->count();
  PruneBall(view, {}, 5, &alive);
  EXPECT_EQ(fraction->count(), fraction_before + 1);
  EXPECT_EQ(latency->count(), latency_before + 1);
  const std::string json = obs::MetricsRegistry::Global().DumpJson();
  EXPECT_NE(json.find("wqe.graph.prune_survivor_fraction"),
            std::string::npos);
  EXPECT_NE(json.find("wqe.graph.prune_ms"), std::string::npos);
}

}  // namespace
}  // namespace wqe::graph
