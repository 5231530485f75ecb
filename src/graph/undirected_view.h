#pragma once

/// \file undirected_view.h
/// \brief Undirected multigraph view used by all structural algorithms.
///
/// The paper analyzes cycles "without taking the edges direction into
/// account": a cycle needs *at least one edge among each pair of
/// consecutive nodes*, and a length-2 cycle needs two parallel edges
/// (e.g. mutual links).  Redirect edges are excluded: per the paper's §4
/// remark, redirect articles "can never close a cycle (see Figure 1)".
///
/// The view is backed by a frozen `CsrGraph` snapshot:
///
///  - the **whole-graph** default view is zero-copy — it is nothing but
///    offset slices into the snapshot's precomputed undirected CSR, so
///    constructing one costs O(1) and local ids equal global node ids;
///  - an **induced-subset** view (the per-query case) materializes its
///    local rows by slicing the parent's sorted undirected rows against
///    the sorted member list — flat two-pointer intersections, no hash
///    maps, no re-walk of the directed builder adjacency.  Local ids are
///    assigned in ascending global-id order, so canonical cycle output is
///    identical whether enumerated on a subset view or on a whole-graph
///    view restricted to the same nodes.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"

namespace wqe::graph {

/// \brief Compact undirected view with local ids `[0, num_nodes())`.
class UndirectedView {
 public:
  /// \brief Zero-copy view over the whole snapshot.
  explicit UndirectedView(const CsrGraph& csr);

  /// \brief View over the subgraph induced by `nodes` (global ids,
  /// duplicates ignored).  Local ids ascend with global ids.
  UndirectedView(const CsrGraph& csr, const std::vector<NodeId>& nodes);

  /// \brief Number of nodes in the view.
  uint32_t num_nodes() const { return num_nodes_; }

  /// \brief Number of undirected adjacent pairs (multiplicity collapsed).
  size_t num_undirected_edges() const { return num_pairs_; }

  /// \brief Maps a local id back to the underlying graph's node id.
  NodeId ToGlobal(uint32_t local) const {
    return subset_ ? global_[local] : local;
  }

  /// \brief Maps a global node id to a local id, or UINT32_MAX if the node
  /// is not part of this view.  Binary search on subset views.
  uint32_t ToLocal(NodeId global) const;

  /// \brief Sorted unique undirected neighbors of `local`, as local ids.
  std::span<const uint32_t> Neighbors(uint32_t local) const {
    return subset_ ? RowSpan(neighbors_, local) : csr_->UndNeighbors(local);
  }

  /// \brief Parallel-edge multiplicities aligned with `Neighbors(local)`.
  std::span<const uint32_t> Multiplicities(uint32_t local) const {
    return subset_ ? RowSpan(mult_, local) : csr_->UndMultiplicities(local);
  }

  /// \brief Undirected degree (distinct neighbors).
  uint32_t Degree(uint32_t local) const {
    return static_cast<uint32_t>(Neighbors(local).size());
  }

  /// \brief True when u and v are adjacent (any direction, any kind).
  bool HasEdge(uint32_t u, uint32_t v) const;

  /// \brief Number of parallel edges between u and v counting both
  /// directions and all included kinds; 0 when not adjacent.
  uint32_t Multiplicity(uint32_t u, uint32_t v) const;

  /// \brief Node kind of a local node.
  NodeKind kind(uint32_t local) const { return csr_->kind(ToGlobal(local)); }

  /// \brief The shared snapshot this view slices.
  const CsrGraph& parent() const { return *csr_; }

 private:
  std::span<const uint32_t> RowSpan(const std::vector<uint32_t>& data,
                                    uint32_t local) const {
    return std::span<const uint32_t>(data.data() + offsets_[local],
                                     data.data() + offsets_[local + 1]);
  }

  const CsrGraph* csr_;
  /// Subset view: local ids differ from global ids, and the adjacency is
  /// materialized below (the whole-graph view reads the snapshot's rows).
  bool subset_ = false;
  uint32_t num_nodes_ = 0;
  size_t num_pairs_ = 0;
  std::vector<NodeId> global_;  ///< subset mode: sorted member globals
  std::vector<uint64_t> offsets_;
  std::vector<uint32_t> neighbors_;  ///< local ids
  std::vector<uint32_t> mult_;
};

}  // namespace wqe::graph
