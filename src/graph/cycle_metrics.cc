#include "graph/cycle_metrics.h"

#include <algorithm>
#include <vector>

namespace wqe::graph {

uint32_t CountInducedEdges(const CsrGraph& graph,
                           const std::vector<NodeId>& nodes) {
  std::vector<NodeId> members(nodes);
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());

  uint32_t count = 0;
  for (NodeId u : members) {
    std::span<const NodeId> targets = graph.OutTargets(u);
    std::span<const EdgeKind> kinds = graph.OutKinds(u);
    for (size_t i = 0; i < targets.size(); ++i) {
      if (kinds[i] == EdgeKind::kRedirect) continue;
      NodeId v = targets[i];
      if (!std::binary_search(members.begin(), members.end(), v)) continue;
      // Category-category (`inside`) edges count once per *unordered* pair,
      // matching M(C)'s C·(C−1)/2 term; article links count per direction.
      // When both directions exist, the (u < v) one claims the pair.
      if (kinds[i] == EdgeKind::kInside && u > v &&
          graph.HasEdge(v, u, EdgeKind::kInside)) {
        continue;
      }
      ++count;
    }
  }
  return count;
}

uint32_t MaxCycleEdges(uint32_t num_articles, uint32_t num_categories) {
  return num_articles * (num_articles - (num_articles > 0 ? 1 : 0)) +
         num_articles * num_categories +
         num_categories * (num_categories - (num_categories > 0 ? 1 : 0)) / 2;
}

namespace {

/// The ratio and density arithmetic shared by the oracle and the
/// ball-local scorer, so that both produce bit-identical doubles.
CycleMetrics MetricsFromCounts(uint32_t length, uint32_t num_categories,
                               uint32_t num_edges) {
  CycleMetrics m;
  m.length = length;
  m.num_articles = length - num_categories;
  m.num_categories = num_categories;
  m.num_edges = num_edges;
  m.max_edges = MaxCycleEdges(m.num_articles, m.num_categories);
  m.category_ratio =
      m.length == 0
          ? 0.0
          : static_cast<double>(m.num_categories) / static_cast<double>(m.length);
  if (m.max_edges > m.length && m.num_edges >= m.length) {
    m.extra_edge_density = static_cast<double>(m.num_edges - m.length) /
                           static_cast<double>(m.max_edges - m.length);
    // Degenerate inputs (e.g. a node sequence that is not actually a
    // minimal cycle) could push E past M; keep the ratio a ratio.
    m.extra_edge_density = std::min(m.extra_edge_density, 1.0);
  } else {
    m.extra_edge_density = 0.0;
  }
  return m;
}

}  // namespace

CycleMetrics ComputeCycleMetrics(const CsrGraph& graph, const Cycle& cycle) {
  uint32_t num_categories = 0;
  for (NodeId n : cycle.nodes) {
    if (!graph.IsArticle(n)) ++num_categories;
  }
  return MetricsFromCounts(cycle.length(), num_categories,
                           CountInducedEdges(graph, cycle.nodes));
}

BallCycleScorer::BallCycleScorer(const UndirectedView& view)
    : num_nodes_(view.num_nodes()),
      is_category_(num_nodes_),
      pair_edges_(static_cast<size_t>(num_nodes_) * num_nodes_, 0) {
  for (uint32_t u = 0; u < num_nodes_; ++u) {
    is_category_[u] = view.kind(u) != NodeKind::kArticle;
  }
  for (uint32_t u = 0; u < num_nodes_; ++u) {
    std::span<const uint32_t> neighbors = view.Neighbors(u);
    std::span<const uint32_t> mults = view.Multiplicities(u);
    uint8_t* row = pair_edges_.data() + static_cast<size_t>(u) * num_nodes_;
    for (size_t i = 0; i < neighbors.size(); ++i) {
      const uint32_t v = neighbors[i];
      // A schema-valid pair carries at most two edges; saturate rather
      // than wrap on a snapshot that breaks the schema.
      row[v] = is_category_[u] && is_category_[v]
                   ? 1
                   : static_cast<uint8_t>(std::min<uint32_t>(mults[i], 255));
    }
  }
}

CycleMetrics BallCycleScorer::Score(std::span<const uint32_t> cycle) const {
  uint32_t num_categories = 0;
  uint32_t num_edges = 0;
  for (size_t i = 0; i < cycle.size(); ++i) {
    num_categories += is_category_[cycle[i]];
    const uint8_t* row =
        pair_edges_.data() + static_cast<size_t>(cycle[i]) * num_nodes_;
    for (size_t j = i + 1; j < cycle.size(); ++j) num_edges += row[cycle[j]];
  }
  return MetricsFromCounts(static_cast<uint32_t>(cycle.size()), num_categories,
                           num_edges);
}

double ReciprocalLinkRate(const CsrGraph& graph) {
  size_t pairs = 0;
  size_t mutual = 0;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    if (!graph.IsArticle(u)) continue;
    std::span<const NodeId> targets = graph.OutTargets(u);
    std::span<const EdgeKind> kinds = graph.OutKinds(u);
    for (size_t i = 0; i < targets.size(); ++i) {
      if (kinds[i] != EdgeKind::kLink) continue;
      NodeId v = targets[i];
      bool reverse = graph.HasEdge(v, u, EdgeKind::kLink);
      if (v > u) {
        ++pairs;
        if (reverse) ++mutual;
      } else if (!reverse) {
        // Pair not seen from v's (smaller-id) side: count it here.
        ++pairs;
      }
    }
  }
  if (pairs == 0) return 0.0;
  return static_cast<double>(mutual) / static_cast<double>(pairs);
}

}  // namespace wqe::graph
