/// \file graph_test.cc
/// \brief Tests for the property graph, undirected view, components and
/// triangles.

#include <gtest/gtest.h>

#include "graph/connected_components.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/triangles.h"
#include "graph/undirected_view.h"

namespace wqe::graph {
namespace {

PropertyGraph TinyWiki() {
  // a0 <-> a1 (mutual links), both belong to c0; a2 isolated article with
  // category c1; c1 inside c0; r redirect -> a0.
  PropertyGraph g;
  NodeId a0 = g.AddNode(NodeKind::kArticle, "a0");
  NodeId a1 = g.AddNode(NodeKind::kArticle, "a1");
  NodeId a2 = g.AddNode(NodeKind::kArticle, "a2");
  NodeId c0 = g.AddNode(NodeKind::kCategory, "c0");
  NodeId c1 = g.AddNode(NodeKind::kCategory, "c1");
  NodeId r = g.AddNode(NodeKind::kArticle, "r");
  EXPECT_TRUE(g.AddEdge(a0, a1, EdgeKind::kLink).ok());
  EXPECT_TRUE(g.AddEdge(a1, a0, EdgeKind::kLink).ok());
  EXPECT_TRUE(g.AddEdge(a0, c0, EdgeKind::kBelongs).ok());
  EXPECT_TRUE(g.AddEdge(a1, c0, EdgeKind::kBelongs).ok());
  EXPECT_TRUE(g.AddEdge(a2, c1, EdgeKind::kBelongs).ok());
  EXPECT_TRUE(g.AddEdge(c1, c0, EdgeKind::kInside).ok());
  EXPECT_TRUE(g.AddEdge(r, a0, EdgeKind::kRedirect).ok());
  return g;
}

TEST(PropertyGraphTest, NodeAccessors) {
  PropertyGraph g;
  NodeId a = g.AddNode(NodeKind::kArticle, "venice");
  NodeId c = g.AddNode(NodeKind::kCategory, "cities");
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_TRUE(g.IsArticle(a));
  EXPECT_TRUE(g.IsCategory(c));
  EXPECT_EQ(g.label(a), "venice");
  EXPECT_EQ(g.CountNodes(NodeKind::kArticle), 1u);
}

TEST(PropertyGraphTest, SchemaEnforced) {
  PropertyGraph g;
  NodeId a = g.AddNode(NodeKind::kArticle, "a");
  NodeId b = g.AddNode(NodeKind::kArticle, "b");
  NodeId c = g.AddNode(NodeKind::kCategory, "c");
  NodeId d = g.AddNode(NodeKind::kCategory, "d");
  // Valid combinations.
  EXPECT_TRUE(g.AddEdge(a, b, EdgeKind::kLink).ok());
  EXPECT_TRUE(g.AddEdge(a, c, EdgeKind::kBelongs).ok());
  EXPECT_TRUE(g.AddEdge(c, d, EdgeKind::kInside).ok());
  // Invalid combinations.
  EXPECT_TRUE(g.AddEdge(a, c, EdgeKind::kLink).IsInvalidArgument());
  EXPECT_TRUE(g.AddEdge(c, a, EdgeKind::kBelongs).IsInvalidArgument());
  EXPECT_TRUE(g.AddEdge(a, b, EdgeKind::kBelongs).IsInvalidArgument());
  EXPECT_TRUE(g.AddEdge(a, d, EdgeKind::kInside).IsInvalidArgument());
  EXPECT_TRUE(g.AddEdge(c, a, EdgeKind::kRedirect).IsInvalidArgument());
}

TEST(PropertyGraphTest, RejectsSelfLoopsAndDuplicates) {
  PropertyGraph g;
  NodeId a = g.AddNode(NodeKind::kArticle, "a");
  NodeId b = g.AddNode(NodeKind::kArticle, "b");
  EXPECT_TRUE(g.AddEdge(a, a, EdgeKind::kLink).IsInvalidArgument());
  EXPECT_TRUE(g.AddEdge(a, b, EdgeKind::kLink).ok());
  EXPECT_TRUE(g.AddEdge(a, b, EdgeKind::kLink).IsAlreadyExists());
  // Different kind between same endpoints is fine.
  EXPECT_TRUE(g.AddEdge(a, b, EdgeKind::kRedirect).ok());
}

TEST(PropertyGraphTest, OutOfRangeNode) {
  PropertyGraph g;
  NodeId a = g.AddNode(NodeKind::kArticle, "a");
  EXPECT_TRUE(g.AddEdge(a, 99, EdgeKind::kLink).IsOutOfRange());
  EXPECT_TRUE(g.CheckNode(99).IsOutOfRange());
  EXPECT_TRUE(g.CheckNode(a).ok());
}

TEST(PropertyGraphTest, InOutEdgesAndCounts) {
  PropertyGraph g = TinyWiki();
  EXPECT_EQ(g.num_edges(), 7u);
  EXPECT_EQ(g.CountEdges(EdgeKind::kLink), 2u);
  EXPECT_EQ(g.CountEdges(EdgeKind::kBelongs), 3u);
  EXPECT_EQ(g.CountEdges(EdgeKind::kInside), 1u);
  EXPECT_EQ(g.CountEdges(EdgeKind::kRedirect), 1u);
  EXPECT_EQ(g.OutDegree(0), 2u);  // a0: link a1 + belongs c0
  EXPECT_EQ(g.InDegree(0), 2u);   // from a1 link, r redirect
}

TEST(UndirectedViewTest, ExcludesRedirectsByDefault) {
  PropertyGraph g = TinyWiki();
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  // r (node 5) participates only via redirect — degree 0 in the view.
  EXPECT_EQ(view.Degree(view.ToLocal(5)), 0u);
}

TEST(UndirectedViewTest, MultiplicityCountsParallelEdges) {
  PropertyGraph g = TinyWiki();
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  uint32_t a0 = view.ToLocal(0), a1 = view.ToLocal(1);
  EXPECT_EQ(view.Multiplicity(a0, a1), 2u);  // mutual links
  uint32_t c0 = view.ToLocal(3);
  EXPECT_EQ(view.Multiplicity(a0, c0), 1u);
  EXPECT_EQ(view.Multiplicity(a0, view.ToLocal(2)), 0u);
}

TEST(UndirectedViewTest, InducedSubsetOnlySeesMembers) {
  PropertyGraph g = TinyWiki();
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr, {0, 1});  // just the two articles
  EXPECT_EQ(view.num_nodes(), 2u);
  EXPECT_EQ(view.num_undirected_edges(), 1u);
  EXPECT_EQ(view.ToLocal(3), UINT32_MAX);
}

TEST(UndirectedViewTest, NeighborsSortedAndDeduped) {
  PropertyGraph g = TinyWiki();
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  const auto& neigh = view.Neighbors(view.ToLocal(0));
  EXPECT_TRUE(std::is_sorted(neigh.begin(), neigh.end()));
  // a0's neighbors: a1 (mutual collapsed to one) and c0.
  EXPECT_EQ(neigh.size(), 2u);
}

TEST(ConnectedComponentsTest, FindsComponentsOrderedBySize) {
  PropertyGraph g = TinyWiki();
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  ComponentsResult cc = ConnectedComponents(view);
  // Components: {a0,a1,c0,c1,a2} (c1 inside c0 connects a2's category) and
  // {r} alone.
  EXPECT_EQ(cc.num_components(), 2u);
  EXPECT_EQ(cc.size[0], 5u);
  EXPECT_EQ(cc.size[1], 1u);
  EXPECT_EQ(cc.LargestComponent().size(), 5u);
}

TEST(ConnectedComponentsTest, EmptyView) {
  PropertyGraph g;
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  ComponentsResult cc = ConnectedComponents(view);
  EXPECT_EQ(cc.num_components(), 0u);
  EXPECT_TRUE(cc.LargestComponent().empty());
}

TEST(TrianglesTest, CountsTriangleThroughCategory) {
  PropertyGraph g = TinyWiki();
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  TriangleStats stats = CountTriangles(view);
  // Triangle: a0 - a1 - c0.
  EXPECT_EQ(stats.triangle_count, 1u);
  EXPECT_EQ(stats.nodes_in_triangles, 3u);
  EXPECT_NEAR(stats.tpr, 3.0 / 6.0, 1e-12);
}

TEST(TrianglesTest, TreeIsTriangleFree) {
  // Pure category tree: no triangles (the paper's observation).
  PropertyGraph g;
  std::vector<NodeId> cats;
  for (int i = 0; i < 7; ++i) {
    cats.push_back(g.AddNode(NodeKind::kCategory, "c" + std::to_string(i)));
  }
  for (int i = 1; i < 7; ++i) {
    ASSERT_TRUE(g.AddEdge(cats[i], cats[(i - 1) / 2], EdgeKind::kInside).ok());
  }
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  TriangleStats stats = CountTriangles(view);
  EXPECT_EQ(stats.triangle_count, 0u);
  EXPECT_DOUBLE_EQ(stats.tpr, 0.0);
}

TEST(TrianglesTest, RestrictedTpr) {
  PropertyGraph g = TinyWiki();
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  // Restricted to the triangle's nodes: TPR 1. Restricted to {a2}: 0.
  EXPECT_DOUBLE_EQ(TriangleParticipationRatio(
                       view, {view.ToLocal(0), view.ToLocal(1),
                              view.ToLocal(3)}),
                   1.0);
  EXPECT_DOUBLE_EQ(TriangleParticipationRatio(view, {view.ToLocal(2)}), 0.0);
}

}  // namespace
}  // namespace wqe::graph
