#pragma once

/// \file cycle_metrics.h
/// \brief Per-cycle structural measurements used in §3 of the paper.
///
/// For a cycle C the paper defines:
///  - A(C), C(C): number of articles / categories among the cycle's nodes;
///  - E(C): number of edges among the cycle's nodes (induced, direction
///    counted for article links, redirects excluded);
///  - M(C) = A·(A−1) + A·C + C·(C−1)/2: the maximum possible edge count
///    given the Figure 1 schema (ordered article pairs can carry two links,
///    belongs is one per article–category pair, inside one per unordered
///    category pair);
///  - category ratio = C(C) / |C| (Figure 7a);
///  - density of extra edges = (E(C) − |C|) / (M(C) − |C|) (Figure 7b/9).
///
/// Two implementations compute these, with the ratio and density
/// arithmetic shared so that their results are equal field for field:
///
///  - **The oracle**, `ComputeCycleMetrics(csr, cycle)`, reads the frozen
///    `CsrGraph` snapshot directly: it sorts the cycle's global ids and
///    scans each member's whole out-row for induced edges.  It serves the
///    §3 analysis path and is the reference the fast path is tested
///    against.
///  - **The ball-local scorer**, `BallCycleScorer`, is built once per
///    query ball from its `UndirectedView`.  It holds a category flag per
///    local id and a dense n×n byte table of each adjacent pair's
///    contribution to E(C), so scoring a cycle of length L costs L flag
///    loads plus L(L−1)/2 table loads: no allocation, no global probe.
///    The cycle expander scores every enumerated cycle with it.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.h"
#include "graph/cycles.h"
#include "graph/graph.h"
#include "graph/undirected_view.h"

namespace wqe::graph {

/// \brief Structural measurements of one cycle.
struct CycleMetrics {
  uint32_t length = 0;
  uint32_t num_articles = 0;
  uint32_t num_categories = 0;
  uint32_t num_edges = 0;        ///< E(C)
  uint32_t max_edges = 0;        ///< M(C)
  double category_ratio = 0.0;   ///< C(C) / |C|
  double extra_edge_density = 0.0;

  bool operator==(const CycleMetrics& other) const = default;
};

/// \brief Computes all metrics of `cycle` against its parent snapshot.
CycleMetrics ComputeCycleMetrics(const CsrGraph& graph, const Cycle& cycle);

/// \brief E(C): edges of `graph` with both endpoints in `nodes`, redirects
/// excluded.  Each directed edge counts once (mutual links count twice).
uint32_t CountInducedEdges(const CsrGraph& graph,
                           const std::vector<NodeId>& nodes);

/// \brief M(C) for the given composition.
uint32_t MaxCycleEdges(uint32_t num_articles, uint32_t num_categories);

/// \brief Ball-local cycle scorer: the per-request fast path of
/// `ComputeCycleMetrics`.
///
/// Built from the query ball's view, it scores cycles given as the view's
/// local ids (what `CycleEnumerator` emits).  Each adjacent pair's table
/// entry is its contribution to E(C): the view's undirected multiplicity
/// for article–article and article–category pairs, and 1 for a
/// category–category pair, because `CountInducedEdges` counts `inside`
/// edges once per unordered pair.  On any schema-valid graph, `Score`
/// equals `ComputeCycleMetrics` on the same cycle's global ids, doubles
/// included.
///
/// The table takes n² bytes for a view of n nodes, so build a scorer over
/// a bounded ball only; the cycle expander's ball is capped by
/// `max_neighborhood`.  Read-only after construction.
class BallCycleScorer {
 public:
  explicit BallCycleScorer(const UndirectedView& view);

  /// \brief Metrics of the cycle whose nodes are the local ids `cycle`
  /// (distinct, in cycle order).
  CycleMetrics Score(std::span<const uint32_t> cycle) const;

 private:
  uint32_t num_nodes_;
  std::vector<uint8_t> is_category_;  ///< per local id
  std::vector<uint8_t> pair_edges_;   ///< num_nodes_² contributions, row-major
};

/// \brief Fraction of linked (unordered) article pairs with links in both
/// directions — the paper's "11.47% of connected article pairs form a cycle
/// of length 2" statistic.
double ReciprocalLinkRate(const CsrGraph& graph);

}  // namespace wqe::graph
