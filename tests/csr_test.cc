/// \file csr_test.cc
/// \brief The frozen `CsrGraph` snapshot: unit tests plus the
/// builder↔snapshot equivalence property suite.
///
/// The property tests pit the CSR cycle path against an *independent*
/// reference enumerator that reads the mutable `PropertyGraph` directly
/// (set-based adjacency, no CSR code involved) and assert bit-identical
/// canonical cycle sets — lengths 2–5, with and without seed filters, on
/// whole graphs and induced subsets.  The
/// knowledge base's structural readers, which serve from the snapshot
/// alone, get the same treatment against a set-based model.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "graph/csr.h"
#include "graph/cycles.h"
#include "graph/graph.h"
#include "graph/undirected_view.h"
#include "wiki/knowledge_base.h"

namespace wqe::graph {

/// Test-only backdoor (friend of CsrGraph): hands out mutable references
/// to the private CSR arrays so the invariant tests can corrupt a frozen
/// snapshot and prove `CheckInvariants` catches each violation class.
/// The graph reads through spans bound to the heap-owned `CsrArrays`
/// block, so in-place element mutation through these references is
/// visible to it; resizing would dangle the spans — the tests only
/// swap/assign elements.
struct CsrGraphTestPeer {
  static std::vector<uint64_t>& out_offsets(CsrGraph& g) {
    return g.owned_->out_offsets;
  }
  static std::vector<NodeId>& out_targets(CsrGraph& g) {
    return g.owned_->out_targets;
  }
  static std::vector<NodeId>& redirect_target(CsrGraph& g) {
    return g.owned_->redirect_target;
  }
  static std::vector<NodeId>& und_neighbors(CsrGraph& g) {
    return g.owned_->und_neighbors;
  }
  static std::vector<uint32_t>& und_mult(CsrGraph& g) {
    return g.owned_->und_mult;
  }
};

namespace {

/// Random article/category graph respecting the Figure 1 schema.
PropertyGraph RandomSchemaGraph(uint64_t seed, uint32_t num_articles,
                                uint32_t num_categories, uint32_t num_edges) {
  Rng rng(seed);
  PropertyGraph g;
  for (uint32_t i = 0; i < num_articles; ++i) {
    g.AddNode(NodeKind::kArticle);
  }
  for (uint32_t i = 0; i < num_categories; ++i) {
    g.AddNode(NodeKind::kCategory);
  }
  uint32_t n = num_articles + num_categories;
  for (uint32_t e = 0; e < num_edges; ++e) {
    uint32_t u = rng.Uniform(n);
    uint32_t v = rng.Uniform(n);
    if (u == v) continue;
    EdgeKind kind;
    if (g.IsArticle(u) && g.IsArticle(v)) {
      kind = rng.Bernoulli(0.85) ? EdgeKind::kLink : EdgeKind::kRedirect;
    } else if (g.IsArticle(u) && g.IsCategory(v)) {
      kind = EdgeKind::kBelongs;
    } else if (g.IsCategory(u) && g.IsCategory(v)) {
      kind = EdgeKind::kInside;
    } else {
      continue;  // category -> article: not in the schema
    }
    (void)g.AddEdge(u, v, kind);  // duplicates rejected, fine
  }
  return g;
}

// ------------------------------------------------------- reference model
// Independent re-implementation of the paper's cycle semantics, straight
// off the builder's edge lists: undirected multiplicity per unordered
// pair, set-based adjacency, plain recursive DFS.  Shares no code with
// the CSR path.

struct ReferenceGraph {
  std::map<NodeId, std::set<NodeId>> adj;
  std::map<std::pair<NodeId, NodeId>, uint32_t> mult;

  ReferenceGraph(const PropertyGraph& g, const std::vector<NodeId>& members) {
    std::set<NodeId> in_set(members.begin(), members.end());
    for (NodeId u : in_set) {
      for (const Edge& e : g.OutEdges(u)) {
        if (e.kind == EdgeKind::kRedirect) continue;
        if (!in_set.count(e.dst)) continue;
        adj[u].insert(e.dst);
        adj[e.dst].insert(u);
        ++mult[{std::min(u, e.dst), std::max(u, e.dst)}];
      }
    }
  }

  uint32_t Multiplicity(NodeId u, NodeId v) const {
    auto it = mult.find({std::min(u, v), std::max(u, v)});
    return it == mult.end() ? 0 : it->second;
  }
};

struct ReferenceOptions {
  uint32_t min_length = 2;
  uint32_t max_length = 5;
  std::vector<NodeId> seeds;
};

/// All cycles in canonical global-id form: rotation starting at the cycle
/// minimum, second node smaller than the last.
std::set<std::vector<NodeId>> ReferenceCycles(const ReferenceGraph& g,
                                              const ReferenceOptions& options) {
  std::set<std::vector<NodeId>> out;
  std::set<NodeId> seed_set(options.seeds.begin(), options.seeds.end());
  auto emit = [&](const std::vector<NodeId>& path) {
    if (path.size() < options.min_length) return;
    if (!seed_set.empty()) {
      bool touches = false;
      for (NodeId v : path) touches |= seed_set.count(v) > 0;
      if (!touches) return;
    }
    out.insert(path);
  };

  // Length 2: parallel pairs.
  if (options.min_length <= 2) {
    for (const auto& [pair, count] : g.mult) {
      if (count >= 2) emit({pair.first, pair.second});
    }
  }
  // Length >= 3: DFS from each start, only through larger ids, both
  // orientations generated and filtered down to the canonical one.
  std::vector<NodeId> path;
  std::set<NodeId> on_path;
  std::function<void(NodeId, NodeId)> dfs = [&](NodeId start, NodeId u) {
    auto it = g.adj.find(u);
    if (it == g.adj.end()) return;
    for (NodeId v : it->second) {
      if (v == start && path.size() >= 3 && path[1] < path.back()) {
        emit(path);
      }
      if (v <= start || on_path.count(v)) continue;
      if (path.size() >= options.max_length) continue;
      path.push_back(v);
      on_path.insert(v);
      dfs(start, v);
      on_path.erase(v);
      path.pop_back();
    }
  };
  for (const auto& [u, neighbors] : g.adj) {
    (void)neighbors;
    path = {u};
    on_path = {u};
    dfs(u, u);
  }
  return out;
}

/// CSR-side cycles in the same canonical global form.
std::set<std::vector<NodeId>> CsrCycles(const CsrGraph& csr,
                                        const UndirectedView& view,
                                        const ReferenceOptions& options) {
  (void)csr;
  CycleEnumerationOptions enum_options;
  enum_options.min_length = options.min_length;
  enum_options.max_length = options.max_length;
  enum_options.seeds = options.seeds;
  std::set<std::vector<NodeId>> out;
  for (const Cycle& c : CycleEnumerator(view).Enumerate(enum_options)) {
    // Locals ascend with globals, so the local-canonical rotation is
    // already the global-canonical one; this insert must never collide.
    EXPECT_TRUE(out.insert(c.nodes).second) << "duplicate cycle emitted";
  }
  return out;
}

std::vector<NodeId> AllNodes(const PropertyGraph& g) {
  std::vector<NodeId> nodes(g.num_nodes());
  for (NodeId i = 0; i < g.num_nodes(); ++i) nodes[i] = i;
  return nodes;
}

class CsrEquivalenceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsrEquivalenceProperty, WholeGraphCycleSetsBitIdentical) {
  PropertyGraph g = RandomSchemaGraph(GetParam(), 18, 7, 110);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  ReferenceGraph ref(g, AllNodes(g));

  ReferenceOptions options;  // lengths 2..5, no filters
  EXPECT_EQ(ReferenceCycles(ref, options), CsrCycles(csr, view, options));
}

TEST_P(CsrEquivalenceProperty, SeededAndBoundedCycleSetsBitIdentical) {
  PropertyGraph g = RandomSchemaGraph(GetParam(), 16, 6, 95);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  ReferenceGraph ref(g, AllNodes(g));

  ReferenceOptions seeded;
  seeded.seeds = {0, 3, 7};
  EXPECT_EQ(ReferenceCycles(ref, seeded), CsrCycles(csr, view, seeded));

  ReferenceOptions bounded;
  bounded.min_length = 3;
  bounded.max_length = 4;
  EXPECT_EQ(ReferenceCycles(ref, bounded), CsrCycles(csr, view, bounded));
}

TEST_P(CsrEquivalenceProperty, InducedSubsetCycleSetsBitIdentical) {
  PropertyGraph g = RandomSchemaGraph(GetParam(), 20, 8, 130);
  CsrGraph csr = CsrGraph::Freeze(g);
  // Every third node, deliberately passed unsorted and with duplicates.
  std::vector<NodeId> members;
  for (NodeId n = 0; n < g.num_nodes(); n += 3) members.push_back(n);
  std::reverse(members.begin(), members.end());
  members.push_back(members.front());
  UndirectedView view(csr, members);
  ReferenceGraph ref(g, members);

  ReferenceOptions options;
  EXPECT_EQ(ReferenceCycles(ref, options), CsrCycles(csr, view, options));
}

TEST_P(CsrEquivalenceProperty, SubsetViewMatchesReferenceAdjacency) {
  PropertyGraph g = RandomSchemaGraph(GetParam(), 22, 8, 120);
  CsrGraph csr = CsrGraph::Freeze(g);
  std::vector<NodeId> members;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (n % 2 == 0) members.push_back(n);
  }
  UndirectedView view(csr, members);
  ReferenceGraph ref(g, members);

  ASSERT_EQ(view.num_nodes(), members.size());
  for (uint32_t lu = 0; lu < view.num_nodes(); ++lu) {
    NodeId gu = view.ToGlobal(lu);
    auto it = ref.adj.find(gu);
    size_t want_degree = it == ref.adj.end() ? 0 : it->second.size();
    ASSERT_EQ(view.Degree(lu), want_degree) << "node " << gu;
    for (uint32_t lv : view.Neighbors(lu)) {
      NodeId gv = view.ToGlobal(lv);
      // Multiplicities must agree pair-by-pair (parallel-edge counts).
      EXPECT_EQ(view.Multiplicity(lu, lv), ref.Multiplicity(gu, gv));
      EXPECT_TRUE(view.HasEdge(lv, lu));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrEquivalenceProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42, 77,
                                           123));

// ------------------------------------------------------------ unit tests

PropertyGraph TinyWiki() {
  PropertyGraph g;
  NodeId a0 = g.AddNode(NodeKind::kArticle);
  NodeId a1 = g.AddNode(NodeKind::kArticle);
  NodeId a2 = g.AddNode(NodeKind::kArticle);
  NodeId c0 = g.AddNode(NodeKind::kCategory);
  NodeId c1 = g.AddNode(NodeKind::kCategory);
  NodeId r = g.AddNode(NodeKind::kArticle);
  EXPECT_TRUE(g.AddEdge(a0, a1, EdgeKind::kLink).ok());
  EXPECT_TRUE(g.AddEdge(a1, a0, EdgeKind::kLink).ok());
  EXPECT_TRUE(g.AddEdge(a0, c0, EdgeKind::kBelongs).ok());
  EXPECT_TRUE(g.AddEdge(a1, c0, EdgeKind::kBelongs).ok());
  EXPECT_TRUE(g.AddEdge(a2, c1, EdgeKind::kBelongs).ok());
  EXPECT_TRUE(g.AddEdge(c1, c0, EdgeKind::kInside).ok());
  EXPECT_TRUE(g.AddEdge(r, a0, EdgeKind::kRedirect).ok());
  return g;
}

TEST(CsrGraphTest, MirrorsBuilderCountsAndKinds) {
  PropertyGraph g = TinyWiki();
  CsrGraph csr = CsrGraph::Freeze(g);
  EXPECT_EQ(csr.num_nodes(), g.num_nodes());
  EXPECT_EQ(csr.num_edges(), g.num_edges());
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    EXPECT_EQ(csr.kind(n), g.kind(n));
    EXPECT_EQ(csr.OutDegree(n), g.OutDegree(n));
    EXPECT_EQ(csr.InDegree(n), g.InDegree(n));
  }
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(csr.CountEdges(static_cast<EdgeKind>(k)),
              g.CountEdges(static_cast<EdgeKind>(k)));
  }
  EXPECT_EQ(csr.CountNodes(NodeKind::kArticle), 4u);
  EXPECT_EQ(csr.CountNodes(NodeKind::kCategory), 2u);
}

TEST(CsrGraphTest, RowsSortedAndHasEdgeBinarySearches) {
  PropertyGraph g = RandomSchemaGraph(99, 25, 10, 160);
  CsrGraph csr = CsrGraph::Freeze(g);
  for (NodeId n = 0; n < csr.num_nodes(); ++n) {
    auto out = csr.OutTargets(n);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    auto in = csr.InSources(n);
    EXPECT_TRUE(std::is_sorted(in.begin(), in.end()));
    auto und = csr.UndNeighbors(n);
    EXPECT_TRUE(std::is_sorted(und.begin(), und.end()));
    EXPECT_EQ(und.size(), csr.UndMultiplicities(n).size());
  }
  // HasEdge agrees with the builder for every (src, dst, kind) probe.
  for (NodeId u = 0; u < csr.num_nodes(); ++u) {
    for (NodeId v = 0; v < csr.num_nodes(); ++v) {
      for (int k = 0; k < 4; ++k) {
        EdgeKind kind = static_cast<EdgeKind>(k);
        EXPECT_EQ(csr.HasEdge(u, v, kind), g.HasEdge(u, v, kind));
      }
    }
  }
}

TEST(CsrGraphTest, RedirectTargetPrecomputed) {
  PropertyGraph g = TinyWiki();
  CsrGraph csr = CsrGraph::Freeze(g);
  EXPECT_EQ(csr.RedirectTarget(5), 0u);  // r -> a0
  EXPECT_EQ(csr.RedirectTarget(0), kInvalidNode);
  EXPECT_EQ(csr.RedirectTarget(3), kInvalidNode);  // category
}

TEST(CsrGraphTest, UndirectedExcludesRedirectsAndCountsParallels) {
  PropertyGraph g = TinyWiki();
  CsrGraph csr = CsrGraph::Freeze(g);
  // r participates only via redirect: no undirected structural edges.
  EXPECT_EQ(csr.UndDegree(5), 0u);
  EXPECT_EQ(csr.UndMultiplicity(5, 0), 0u);
  // Mutual links a0 <-> a1: one pair, multiplicity 2.
  EXPECT_EQ(csr.UndMultiplicity(0, 1), 2u);
  EXPECT_EQ(csr.UndMultiplicity(1, 0), 2u);
  EXPECT_EQ(csr.UndMultiplicity(0, 3), 1u);
  EXPECT_FALSE(csr.HasUndEdge(0, 2));
  // Pairs: (a0,a1), (a0,c0), (a1,c0), (a2,c1), (c1,c0).
  EXPECT_EQ(csr.num_und_pairs(), 5u);
}

TEST(CsrGraphTest, EmptyGraph) {
  PropertyGraph g;
  CsrGraph csr = CsrGraph::Freeze(g);
  EXPECT_EQ(csr.num_nodes(), 0u);
  EXPECT_EQ(csr.num_edges(), 0u);
  EXPECT_EQ(csr.num_und_pairs(), 0u);
  EXPECT_FALSE(csr.HasEdge(0, 0, EdgeKind::kLink));
}

TEST(KnowledgeBaseFreezeTest, FreezeIsOneWay) {
  wiki::KnowledgeBase kb;
  auto a = kb.AddArticle("venice");
  auto b = kb.AddArticle("gondola");
  auto c = kb.AddCategory("cities");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  WQE_CHECK_OK(kb.AddLink(*a, *b));
  WQE_CHECK_OK(kb.AddBelongs(*a, *c));
  EXPECT_FALSE(kb.frozen());

  const CsrGraph& csr = kb.Freeze();
  EXPECT_TRUE(kb.frozen());
  EXPECT_EQ(&kb.Freeze(), &csr);  // idempotent
  EXPECT_EQ(csr.num_nodes(), 3u);

  // Every mutator fails once frozen.
  EXPECT_TRUE(kb.AddArticle("lagoon").status().IsInvalidArgument());
  EXPECT_TRUE(kb.AddCategory("canals").status().IsInvalidArgument());
  EXPECT_TRUE(kb.AddRedirect("venezia", *a).status().IsInvalidArgument());
  EXPECT_TRUE(kb.AddLink(*b, *a).IsInvalidArgument());
  EXPECT_TRUE(kb.AddBelongs(*b, *c).IsInvalidArgument());
  EXPECT_TRUE(kb.AddInside(*c, *c).IsInvalidArgument());

  // Reads serve from the snapshot.
  EXPECT_EQ(kb.ResolveRedirect(*a), *a);
  EXPECT_FALSE(kb.IsRedirect(*a));
  EXPECT_EQ(kb.LinkedFrom(*a), std::vector<NodeId>{*b});
  EXPECT_EQ(kb.LinkingTo(*b), std::vector<NodeId>{*a});
  EXPECT_EQ(kb.CategoriesOf(*a), std::vector<NodeId>{*c});
}

// ------------------------------------- KB readers vs a set-based model
// A frozen KB answers every structural read from the CSR alone.  The
// oracle is a model built from plain sets by the same random insertion
// script: it predicts which mutations the KB accepts, records the edges
// that went in, and answers each reader independently of the CSR.

using EdgeSet = std::set<std::pair<NodeId, NodeId>>;

/// Ascending heads of the edges leaving `n`.
std::vector<NodeId> Heads(const EdgeSet& edges, NodeId n) {
  std::vector<NodeId> out;
  for (const auto& [src, dst] : edges) {
    if (src == n) out.push_back(dst);
  }
  return out;
}

/// Ascending tails of the edges entering `n`.
std::vector<NodeId> Tails(const EdgeSet& edges, NodeId n) {
  std::vector<NodeId> out;
  for (const auto& [src, dst] : edges) {
    if (dst == n) out.push_back(src);
  }
  return out;
}

struct KbModel {
  std::vector<bool> is_category;
  std::vector<NodeId> redirect_to;  // kInvalidNode unless a redirect
  EdgeSet links, belongs, inside;

  uint32_t size() const { return static_cast<uint32_t>(is_category.size()); }
  bool IsMainArticle(NodeId n) const {
    return !is_category[n] && redirect_to[n] == kInvalidNode;
  }

  std::vector<NodeId> RedirectsOf(NodeId n) const {
    std::vector<NodeId> out;
    for (NodeId r = 0; r < size(); ++r) {
      if (redirect_to[r] == n) out.push_back(r);
    }
    return out;
  }

  /// Every main article has a category; a redirect has no edge but its
  /// redirect.
  bool Valid() const {
    for (NodeId n = 0; n < size(); ++n) {
      if (is_category[n]) continue;
      const bool redirect = redirect_to[n] != kInvalidNode;
      const size_t categories = Heads(belongs, n).size();
      if (redirect && (categories > 0 || !Heads(links, n).empty())) {
        return false;
      }
      if (!redirect && categories == 0) return false;
    }
    return true;
  }

  /// BFS distance from the in-range `sources` over link, belongs and
  /// inside edges both ways; UINT32_MAX when unreachable.
  std::vector<uint32_t> Distances(const std::vector<NodeId>& sources) const {
    std::vector<std::set<NodeId>> adj(size());
    for (const EdgeSet* edges : {&links, &belongs, &inside}) {
      for (const auto& [a, b] : *edges) {
        adj[a].insert(b);
        adj[b].insert(a);
      }
    }
    std::vector<uint32_t> dist(size(), UINT32_MAX);
    std::vector<NodeId> queue;
    for (NodeId s : sources) {
      if (s < size() && dist[s] == UINT32_MAX) {
        dist[s] = 0;
        queue.push_back(s);
      }
    }
    for (size_t head = 0; head < queue.size(); ++head) {
      for (NodeId v : adj[queue[head]]) {
        if (dist[v] == UINT32_MAX) {
          dist[v] = dist[queue[head]] + 1;
          queue.push_back(v);
        }
      }
    }
    return dist;
  }
};

/// Runs one random insertion script against `kb` and `model` alike:
/// articles, categories, redirects (some aimed at redirects or
/// categories), and link/belongs/inside attempts whose endpoints now and
/// then ignore the schema.  Each mutation must succeed exactly when the
/// model says it may.
void RunScript(uint64_t seed, wiki::KnowledgeBase* kb, KbModel* model) {
  Rng rng(seed);
  auto add_node = [&](bool category, NodeId redirect_to) {
    model->is_category.push_back(category);
    model->redirect_to.push_back(redirect_to);
  };
  const uint32_t articles = 6 + rng.Uniform(20);
  const uint32_t categories = 2 + rng.Uniform(6);
  for (uint32_t i = 0; i < articles; ++i) {
    ASSERT_TRUE(kb->AddArticle("a" + std::to_string(i)).ok());
    add_node(false, kInvalidNode);
  }
  for (uint32_t i = 0; i < categories; ++i) {
    ASSERT_TRUE(kb->AddCategory("c" + std::to_string(i)).ok());
    add_node(true, kInvalidNode);
  }
  const uint32_t redirects = rng.Uniform(articles / 2 + 1);
  for (uint32_t i = 0; i < redirects; ++i) {
    const NodeId target = rng.Uniform(model->size());
    Result<NodeId> id = kb->AddRedirect("r" + std::to_string(i), target);
    ASSERT_EQ(id.ok(), model->IsMainArticle(target)) << "redirect to " << target;
    if (id.ok()) add_node(false, target);
  }

  std::vector<NodeId> article_ids, category_ids;
  for (NodeId n = 0; n < model->size(); ++n) {
    (model->is_category[n] ? category_ids : article_ids).push_back(n);
  }
  auto pick = [&](const std::vector<NodeId>& pool) {
    return rng.Bernoulli(0.1) ? rng.Uniform(model->size())
                              : pool[rng.Uniform(
                                    static_cast<uint32_t>(pool.size()))];
  };
  for (uint32_t e = 0; e < 4 * model->size(); ++e) {
    switch (rng.Uniform(3)) {
      case 0: {
        const NodeId a = pick(article_ids), b = pick(article_ids);
        const bool ok = a != b && model->IsMainArticle(a) &&
                        model->IsMainArticle(b) && !model->links.count({a, b});
        ASSERT_EQ(kb->AddLink(a, b).ok(), ok) << "link " << a << "->" << b;
        if (ok) model->links.insert({a, b});
        break;
      }
      case 1: {
        const NodeId a = pick(article_ids), c = pick(category_ids);
        const bool ok = model->IsMainArticle(a) && model->is_category[c] &&
                        !model->belongs.count({a, c});
        ASSERT_EQ(kb->AddBelongs(a, c).ok(), ok) << "belongs " << a << "->" << c;
        if (ok) model->belongs.insert({a, c});
        break;
      }
      default: {
        const NodeId c = pick(category_ids), p = pick(category_ids);
        const bool ok = c != p && model->is_category[c] &&
                        model->is_category[p] && !model->inside.count({c, p});
        ASSERT_EQ(kb->AddInside(c, p).ok(), ok) << "inside " << c << "->" << p;
        if (ok) model->inside.insert({c, p});
        break;
      }
    }
  }
  // On about half the seeds every main article gets a category, so
  // Validate is checked both passing and failing.
  if (rng.Bernoulli(0.5)) {
    for (NodeId a : article_ids) {
      if (!model->IsMainArticle(a) || !Heads(model->belongs, a).empty()) {
        continue;
      }
      const NodeId c = category_ids[0];
      ASSERT_TRUE(kb->AddBelongs(a, c).ok());
      model->belongs.insert({a, c});
    }
  }
}

TEST(KnowledgeBaseReaderOracleTest, ReadersMatchSetModelAcrossSeeds) {
  size_t valid_seeds = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    wiki::KnowledgeBase kb;
    KbModel model;
    ASSERT_NO_FATAL_FAILURE(RunScript(seed, &kb, &model));
    kb.Freeze();
    ASSERT_EQ(kb.csr().num_nodes(), model.size());

    for (NodeId n = 0; n < model.size(); ++n) {
      SCOPED_TRACE("node " + std::to_string(n));
      const NodeId target = model.redirect_to[n];
      EXPECT_EQ(kb.IsRedirect(n), target != kInvalidNode);
      EXPECT_EQ(kb.ResolveRedirect(n), target == kInvalidNode ? n : target);
      EXPECT_EQ(kb.RedirectsOf(n), model.RedirectsOf(n));
      EXPECT_EQ(kb.CategoriesOf(n), Heads(model.belongs, n));
      EXPECT_EQ(kb.LinkedFrom(n), Heads(model.links, n));
      EXPECT_EQ(kb.LinkingTo(n), Tails(model.links, n));
      // Rows come back ascending — pinned, callers may rely on it.
      std::vector<NodeId> linked = kb.LinkedFrom(n);
      EXPECT_TRUE(std::is_sorted(linked.begin(), linked.end()));
    }
    EXPECT_EQ(kb.Validate().ok(), model.Valid());
    valid_seeds += model.Valid() ? 1 : 0;

    Rng rng(seed + 1000);
    for (int round = 0; round < 8; ++round) {
      std::vector<NodeId> sources;
      const uint32_t num_sources = 1 + rng.Uniform(3);
      for (uint32_t k = 0; k < num_sources; ++k) {
        sources.push_back(rng.Uniform(model.size()));
      }
      sources.push_back(sources.front());      // duplicate source
      sources.push_back(model.size() + 5);     // out of range: ignored
      const std::vector<uint32_t> dist = model.Distances(sources);
      const size_t unique_sources = static_cast<size_t>(
          std::count(dist.begin(), dist.end(), 0u));
      for (uint32_t radius = 0; radius <= 3; ++radius) {
        SCOPED_TRACE("radius " + std::to_string(radius));
        std::set<NodeId> ball;
        for (NodeId n = 0; n < model.size(); ++n) {
          if (dist[n] <= radius) ball.insert(n);
        }
        const std::vector<NodeId> full = kb.Neighborhood(sources, radius, 0);
        EXPECT_EQ(std::set<NodeId>(full.begin(), full.end()), ball);
        EXPECT_EQ(full.size(), ball.size());  // no node twice
        for (size_t i = 1; i < full.size(); ++i) {  // BFS order
          EXPECT_LE(dist[full[i - 1]], dist[full[i]]);
        }
        // A cap keeps the BFS-order prefix, never dropping a source.
        for (size_t cap : {1u, 3u, 10u}) {
          const size_t keep =
              std::max(unique_sources, std::min(cap, full.size()));
          EXPECT_EQ(kb.Neighborhood(sources, radius, cap),
                    std::vector<NodeId>(full.begin(), full.begin() + keep))
              << "cap " << cap;
        }
      }
    }
  }
  // The script reaches both Validate outcomes.
  EXPECT_GT(valid_seeds, 0u);
  EXPECT_LT(valid_seeds, 12u);
}

// --------------------------------------------- structural invariants
// CheckInvariants is the debug-build validator Freeze runs before a
// snapshot can serve (see ci.sh's asan/tsan Debug lanes); these tests
// exercise it directly: clean on everything Freeze produces, and a
// distinct diagnostic per corrupted array.

TEST(CsrInvariantsTest, FreshSnapshotsAreClean) {
  EXPECT_TRUE(CsrGraph().CheckInvariants().ok());  // default-constructed
  CsrGraph tiny = CsrGraph::Freeze(TinyWiki());
  EXPECT_TRUE(tiny.CheckInvariants().ok());
  for (uint64_t seed : {1u, 7u, 99u}) {
    CsrGraph csr = CsrGraph::Freeze(RandomSchemaGraph(seed, 30, 10, 220));
    EXPECT_TRUE(csr.CheckInvariants().ok()) << "seed " << seed;
  }
}

TEST(CsrInvariantsTest, DetectsUnsortedRow) {
  CsrGraph csr = CsrGraph::Freeze(RandomSchemaGraph(3, 20, 8, 150));
  std::vector<NodeId>& targets = CsrGraphTestPeer::out_targets(csr);
  ASSERT_GE(targets.size(), 2u);
  // Find a row with >= 2 entries and swap its ends out of order.
  std::vector<uint64_t>& offsets = CsrGraphTestPeer::out_offsets(csr);
  for (size_t u = 0; u + 1 < offsets.size(); ++u) {
    if (offsets[u + 1] - offsets[u] >= 2 &&
        targets[offsets[u]] != targets[offsets[u + 1] - 1]) {
      std::swap(targets[offsets[u]], targets[offsets[u + 1] - 1]);
      break;
    }
  }
  Status status = csr.CheckInvariants();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("not sorted"), std::string::npos) << status;
}

TEST(CsrInvariantsTest, DetectsNonMonotoneOffsets) {
  CsrGraph csr = CsrGraph::Freeze(RandomSchemaGraph(4, 20, 8, 150));
  std::vector<uint64_t>& offsets = CsrGraphTestPeer::out_offsets(csr);
  ASSERT_GE(offsets.size(), 3u);
  offsets[1] = offsets.back() + 1;  // overshoots its successor
  EXPECT_FALSE(csr.CheckInvariants().ok());
}

TEST(CsrInvariantsTest, DetectsRedirectTableDrift) {
  CsrGraph csr = CsrGraph::Freeze(TinyWiki());  // has one redirect edge
  std::vector<NodeId>& redirect = CsrGraphTestPeer::redirect_target(csr);
  auto it = std::find_if(redirect.begin(), redirect.end(),
                         [](NodeId t) { return t != kInvalidNode; });
  ASSERT_NE(it, redirect.end());
  *it = kInvalidNode;  // table forgets an existing redirect edge
  Status status = csr.CheckInvariants();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("redirect table"), std::string::npos)
      << status;
}

TEST(CsrInvariantsTest, DetectsAsymmetricUndirectedMultiplicity) {
  CsrGraph csr = CsrGraph::Freeze(RandomSchemaGraph(5, 20, 8, 150));
  std::vector<uint32_t>& mult = CsrGraphTestPeer::und_mult(csr);
  ASSERT_FALSE(mult.empty());
  mult.front() += 1;  // (u,v) no longer matches (v,u)
  Status status = csr.CheckInvariants();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("asymmetric"), std::string::npos) << status;
}

TEST(CsrInvariantsTest, DetectsOutOfRangeNeighbor) {
  CsrGraph csr = CsrGraph::Freeze(RandomSchemaGraph(6, 20, 8, 150));
  std::vector<NodeId>& neighbors = CsrGraphTestPeer::und_neighbors(csr);
  ASSERT_FALSE(neighbors.empty());
  neighbors.back() = csr.num_nodes() + 17;
  EXPECT_FALSE(csr.CheckInvariants().ok());
}

#ifndef NDEBUG
// The freeze-time enforcement path: DCheckInvariants (what Freeze calls
// in Debug builds) must abort the process on a corrupted snapshot, not
// let it serve.  Death tests only mean anything where WQE_DCHECK is
// live, i.e. builds without NDEBUG — the CI tsan/asan lanes.
TEST(CsrInvariantsDeathTest, CorruptedSnapshotAbortsInDebug) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  CsrGraph csr = CsrGraph::Freeze(RandomSchemaGraph(8, 20, 8, 150));
  csr.DCheckInvariants();  // clean: must not abort
  std::vector<uint32_t>& mult = CsrGraphTestPeer::und_mult(csr);
  ASSERT_FALSE(mult.empty());
  mult.front() += 1;
  EXPECT_DEATH(csr.DCheckInvariants(), "asymmetric");
}
#endif  // NDEBUG

}  // namespace
}  // namespace wqe::graph
