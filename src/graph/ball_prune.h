#pragma once

/// \file ball_prune.h
/// \brief Semijoin-guided query-ball pruning for cycle enumeration.
///
/// Most nodes of a hub-heavy query ball can never lie on a cycle of
/// length ≤ L through the query nodes — they are pure DFS overhead.  The
/// reduction here is the semijoin-algebra observation (Leinders/
/// Tyszkiewicz/Van den Bussche): "within distance d of a query node" and
/// "not peelable" are bounded-quantification reachability checks, i.e.
/// computable by iterated cheap per-node filters over the adjacency —
/// no joins, no graph copies.  Two filters run to a mutual fixed point
/// over one `std::vector<uint64_t>` bitset on the view's CSR rows:
///
///  1. **Degree peeling** (the multigraph 2-core): a node whose alive
///     incident-edge count — Σ min(multiplicity, 2) over alive
///     neighbors — is below 2 can close no cycle of any length.
///     Removing it may expose further peelable nodes; a worklist drains
///     the cascade.
///  2. **Distance-to-query filtering**: every node of a cycle of length
///     ≤ L containing a query node is, along the cycle itself, within
///     undirected distance ⌊L/2⌋ of that query node.  A multi-source
///     BFS from the alive query nodes (over alive nodes only) therefore
///     kills everything beyond that radius.  Skipped when no seeds are
///     given — then every cycle qualifies and only peeling applies.
///
/// Both rules only ever remove nodes that lie on *no* qualifying cycle,
/// and a qualifying cycle's nodes all survive both rules (each has
/// in-cycle multigraph degree 2 and in-cycle distance ≤ ⌊L/2⌋ to the
/// seed), so by induction the surviving subgraph contains every cycle of
/// length ≤ L through a seed — pruned enumeration is provably
/// bit-identical to unpruned (same cycles, same order, same truncation
/// and abort prefixes; see graph/cycles.h, which skips dead nodes).
///
/// The BFS also yields each survivor's distance to its nearest seed,
/// which the enumerator uses to abandon seedless DFS paths that can no
/// longer reach a seed within the length bound (graph/cycles.h).
///
/// The kernel records `wqe.graph.prune_ms`,
/// `wqe.graph.prune_survivor_fraction` and `wqe.graph.prune_survivors`
/// histograms in the global obs registry and runs under a `pruning` span
/// stage.

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/undirected_view.h"

namespace wqe::graph {

/// \brief Outcome summary of one pruning pass.
struct BallPruneStats {
  uint32_t num_nodes = 0;  ///< view size
  uint32_t num_alive = 0;  ///< survivors (bits set in `alive`)
  /// BFS/peel rounds to the mutual fixed point (0 when no seeds were
  /// given: peeling alone needs no outer iteration).
  uint32_t rounds = 0;

  double survivor_fraction() const {
    return num_nodes == 0
               ? 1.0
               : static_cast<double>(num_alive) / static_cast<double>(num_nodes);
  }
  bool pruned_any() const { return num_alive < num_nodes; }
};

/// \brief Tests local id `i` in a pruning bitset (one bit per view-local
/// node, 64 per word).  Exposed for the enumerator's hot path.
inline bool BallPruneAlive(const uint64_t* alive, uint32_t i) {
  return ((alive[i >> 6] >> (i & 63)) & 1) != 0;
}

/// \brief Reduces `view` to the nodes that can lie on an undirected
/// cycle of length ≤ `max_cycle_length` containing at least one of
/// `seeds` (global ids; an empty set means any cycle qualifies — only
/// peeling applies, as in unseeded enumeration).
///
/// `alive` is resized to ⌈num_nodes/64⌉ words and holds one bit per
/// local id; trailing bits of the last word are zero.  Seeds outside the
/// view are ignored; if seeds were given but none is alive, nothing can
/// qualify and the bitset comes back empty.
///
/// `seed_distance`, when given, receives by local id the undirected
/// distance to the nearest seed over alive nodes, as measured by the last
/// completed BFS round (UINT32_MAX for nodes it did not reach; every
/// survivor was reached).  It is a lower bound on the in-cycle
/// distance from a survivor to any seed on a surviving cycle.  It comes
/// back empty when there is no distance to report: no seeds were given,
/// or an expired deadline stopped it before the first round.
BallPruneStats PruneBall(const UndirectedView& view,
                         const std::vector<NodeId>& seeds,
                         uint32_t max_cycle_length,
                         std::vector<uint64_t>* alive,
                         std::vector<uint32_t>* seed_distance = nullptr);

}  // namespace wqe::graph
