#pragma once

/// \file query_graph.h
/// \brief Query-graph assembly (paper §2.3).
///
/// G(q) is the Wikipedia subgraph induced by X(q) = L(q.k) ∪ A′, the main
/// articles of any redirects among them, and all their categories.  §3
/// studies it "without taking the edges direction into account", so the
/// struct keeps only the member list: the analysis slices the KB's frozen
/// snapshot over it with an induced `graph::UndirectedView`.  It also
/// keeps the provenance of each input (query article vs expansion
/// article), so the analysis can compute Table 3's ratios.

#include <vector>

#include "wiki/knowledge_base.h"

namespace wqe::groundtruth {

using graph::NodeId;

/// \brief One assembled query graph.
struct QueryGraph {
  /// KB ids of G(q)'s members: X(q)'s closure, sorted and unique.
  std::vector<NodeId> nodes;
  /// KB ids of the query articles L(q.k) included in the graph.
  std::vector<NodeId> query_articles;
  /// KB ids of the expansion articles A'.
  std::vector<NodeId> expansion_articles;

  size_t num_nodes() const { return nodes.size(); }
};

/// \brief Builds G(q) from the knowledge base, which must be frozen (its
/// structure is read through `kb.csr()`).
///
/// Redirects among the inputs are resolved to their main articles (both
/// are included, mirroring the paper's construction); categories of every
/// included article are added; the graph is the union.
QueryGraph BuildQueryGraph(const wiki::KnowledgeBase& kb,
                           const std::vector<NodeId>& query_articles,
                           const std::vector<NodeId>& expansion_articles);

}  // namespace wqe::groundtruth
