#pragma once

/// \file csr.h
/// \brief Immutable CSR (compressed sparse row) snapshot of a
/// `PropertyGraph` — the frozen core every structural algorithm runs on.
///
/// `PropertyGraph` is the mutable *builder*: append-only, schema-checked,
/// backed by one `std::vector<Edge>` per node.  `CsrGraph::Freeze` is the
/// one-way bridge to the serving representation: flat `offsets[]` /
/// `targets[]` arrays per direction with edge kinds in a parallel array,
/// neighbor ranges sorted by (target, kind) so `HasEdge` is a binary
/// search, and a precomputed *undirected* CSR (redirect edges excluded,
/// per the paper's §4 remark that redirects never close a cycle) carrying
/// the parallel-edge multiplicity of every adjacent pair.
///
/// A snapshot is fully self-contained — it copies node kinds and never
/// points back into the builder — so it can be moved freely and shared
/// read-only across any number of serving threads.  Labels are not part
/// of it: `wiki::KnowledgeBase` keeps them in its own name blobs,
/// releases the builder once frozen, and hands out the snapshot through
/// `csr()`.
///
/// Storage abstraction: the graph reads every flat array through a
/// `std::span`, and the bytes behind those spans are interchangeable —
/// either vectors built by `Freeze` (owned via a `CsrArrays` block) or an
/// externally-owned region such as a read-only `mmap` of an on-disk
/// snapshot (pinned via a type-erased `shared_ptr`, see
/// `snapshot::Reader`).  `Sections()` / `FromSections()` are the exchange
/// points with the snapshot writer/reader: the exact arrays, zero copies.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace wqe::graph {

/// \brief Owned backing storage of one frozen snapshot: the eleven flat
/// CSR arrays as vectors.  `CsrGraph::Freeze` builds one of these on the
/// heap and keeps it alive behind the graph's spans.
struct CsrArrays {
  std::vector<NodeKind> kinds;
  std::vector<NodeId> redirect_target;
  std::vector<uint64_t> out_offsets;
  std::vector<NodeId> out_targets;
  std::vector<EdgeKind> out_kinds;
  std::vector<uint64_t> in_offsets;
  std::vector<NodeId> in_sources;
  std::vector<EdgeKind> in_kinds;
  std::vector<uint64_t> und_offsets;
  std::vector<NodeId> und_neighbors;
  std::vector<uint32_t> und_mult;
};

/// \brief Read-only view of every flat array plus the precomputed
/// counts — the unit of exchange between a `CsrGraph` and the on-disk
/// snapshot format (`snapshot::Writer` serializes these sections;
/// `snapshot::Reader` reconstitutes a graph from them).
struct CsrSections {
  std::span<const NodeKind> kinds;
  std::span<const NodeId> redirect_target;
  std::span<const uint64_t> out_offsets;
  std::span<const NodeId> out_targets;
  std::span<const EdgeKind> out_kinds;
  std::span<const uint64_t> in_offsets;
  std::span<const NodeId> in_sources;
  std::span<const EdgeKind> in_kinds;
  std::span<const uint64_t> und_offsets;
  std::span<const NodeId> und_neighbors;
  std::span<const uint32_t> und_mult;
  std::array<uint64_t, 4> edge_kind_counts{};
  std::array<uint64_t, 2> node_kind_counts{};
};

/// \brief Frozen flat-adjacency snapshot of a `PropertyGraph`.
class CsrGraph {
 public:
  CsrGraph() = default;

  /// \brief Builds the snapshot.  O(V + E log max_degree); the builder is
  /// left untouched and may keep growing — the snapshot will not see later
  /// mutations (`wiki::KnowledgeBase::Freeze` releases its builder right
  /// after this call, so it never has to reconcile the two).
  static CsrGraph Freeze(const PropertyGraph& builder);

  /// \brief Reconstitutes a snapshot from raw sections (the snapshot
  /// reader's path).  `storage` is the type-erased owner of the bytes the
  /// spans point into (the reader's mmap region) and is pinned for the
  /// graph's lifetime.  No check runs here: the caller must have
  /// bounds-validated the sections, as `snapshot::Reader` does, and may
  /// run `CheckInvariants()` on the result for the full pass.
  static CsrGraph FromSections(const CsrSections& sections,
                               std::shared_ptr<const void> storage);

  /// \brief The exact arrays behind this snapshot, as read-only sections.
  /// Valid while the graph (or a copy sharing its storage) is alive.
  CsrSections Sections() const;

  /// \name Nodes
  /// @{
  uint32_t num_nodes() const { return static_cast<uint32_t>(kinds_.size()); }
  NodeKind kind(NodeId n) const { return kinds_[n]; }
  bool IsArticle(NodeId n) const { return kinds_[n] == NodeKind::kArticle; }
  bool IsCategory(NodeId n) const { return kinds_[n] == NodeKind::kCategory; }
  size_t CountNodes(NodeKind kind) const {
    return node_kind_counts_[static_cast<size_t>(kind)];
  }
  /// @}

  /// \name Directed adjacency (sorted by (target, kind))
  /// @{
  size_t num_edges() const { return out_targets_.size(); }
  size_t CountEdges(EdgeKind kind) const {
    return edge_kind_counts_[static_cast<size_t>(kind)];
  }

  std::span<const NodeId> OutTargets(NodeId n) const {
    return Row(out_targets_, out_offsets_, n);
  }
  std::span<const EdgeKind> OutKinds(NodeId n) const {
    return Row(out_kinds_, out_offsets_, n);
  }
  /// \brief Sources of the edges pointing *at* `n`.
  std::span<const NodeId> InSources(NodeId n) const {
    return Row(in_sources_, in_offsets_, n);
  }
  std::span<const EdgeKind> InKinds(NodeId n) const {
    return Row(in_kinds_, in_offsets_, n);
  }
  size_t OutDegree(NodeId n) const {
    return out_offsets_[n + 1] - out_offsets_[n];
  }
  size_t InDegree(NodeId n) const {
    return in_offsets_[n + 1] - in_offsets_[n];
  }

  /// \brief True when the directed edge (src, dst, kind) exists.  Binary
  /// search over the sorted out-row of `src`.
  bool HasEdge(NodeId src, NodeId dst, EdgeKind kind) const;

  /// \brief Target of `n`'s redirect out-edge, or `kInvalidNode` when `n`
  /// carries none.  Precomputed at freeze time (O(1) lookup).
  NodeId RedirectTarget(NodeId n) const { return redirect_target_[n]; }
  /// @}

  /// \name Undirected structural adjacency (redirects excluded)
  ///
  /// Distinct neighbors in ascending order; `UndMultiplicities` is the
  /// parallel array of per-pair parallel-edge counts (both directions, all
  /// kinds except redirect).  This is the whole-graph replacement for the
  /// per-query `UndirectedView` rebuild — induced subsets slice these rows
  /// (see undirected_view.h).
  /// @{
  std::span<const NodeId> UndNeighbors(NodeId n) const {
    return Row(und_neighbors_, und_offsets_, n);
  }
  std::span<const uint32_t> UndMultiplicities(NodeId n) const {
    return Row(und_mult_, und_offsets_, n);
  }
  size_t UndDegree(NodeId n) const {
    return und_offsets_[n + 1] - und_offsets_[n];
  }
  /// \brief Parallel-edge multiplicity of (u, v); 0 when not adjacent.
  uint32_t UndMultiplicity(NodeId u, NodeId v) const;
  bool HasUndEdge(NodeId u, NodeId v) const { return UndMultiplicity(u, v) > 0; }
  /// \brief Number of adjacent unordered pairs (multiplicity collapsed).
  size_t num_und_pairs() const { return und_neighbors_.size() / 2; }
  /// @}

  /// \name Structural invariant validation
  ///
  /// The dynamic complement of the serve layer's compile-time lock
  /// checking: every algorithm in the tree (binary-search `HasEdge`, the
  /// cycle DFS's canonical-prefix skip, undirected-view slicing) assumes
  /// the snapshot's structural invariants, so Debug builds verify them
  /// once at freeze time and tests can verify them directly.
  /// @{

  /// \brief Checks every snapshot invariant: offset arrays are
  /// zero-based, monotone and end at their data size; parallel
  /// kind/multiplicity arrays match their row arrays; every endpoint is
  /// in range; directed rows are sorted by (node, kind); the redirect
  /// table matches each node's first redirect out-edge; per-kind counts
  /// tally; the undirected CSR has strictly ascending distinct
  /// neighbors, positive multiplicities, symmetric (u,v)/(v,u) entries,
  /// and total multiplicity equal to twice the non-redirect edge count.
  /// O(V + E log max_degree); intended for tests and debug builds.
  Status CheckInvariants() const;

  /// \brief `WQE_DCHECK`s `CheckInvariants()`: aborts with the violation
  /// in builds without NDEBUG, no-op otherwise.  Called by `Freeze`;
  /// exposed so tests exercise the exact freeze-time enforcement path.
  void DCheckInvariants() const;
  /// @}

 private:
  /// Test-only backdoor (defined in tests/csr_test.cc) for corrupting a
  /// snapshot to prove the validator catches it.
  friend struct CsrGraphTestPeer;

  template <typename T>
  static std::span<const T> Row(std::span<const T> data,
                                std::span<const uint64_t> offsets, NodeId n) {
    return data.subspan(offsets[n], offsets[n + 1] - offsets[n]);
  }

  /// Points every span at the vectors of `arrays` (which must already be
  /// final-sized: a later reallocation would dangle the spans).
  void BindSpans(const CsrArrays& arrays);

  /// Every access goes through these spans; the arrays behind them are
  /// pinned by exactly one of `owned_` (Freeze) or `external_`
  /// (snapshot-loaded).  Copies of a CsrGraph share storage —
  /// sound because a frozen snapshot is immutable.
  std::span<const NodeKind> kinds_;
  std::span<const NodeId> redirect_target_;

  std::span<const uint64_t> out_offsets_;  // size num_nodes() + 1
  std::span<const NodeId> out_targets_;
  std::span<const EdgeKind> out_kinds_;
  std::span<const uint64_t> in_offsets_;
  std::span<const NodeId> in_sources_;
  std::span<const EdgeKind> in_kinds_;

  std::span<const uint64_t> und_offsets_;
  std::span<const NodeId> und_neighbors_;
  std::span<const uint32_t> und_mult_;

  std::array<size_t, 4> edge_kind_counts_{};
  std::array<size_t, 2> node_kind_counts_{};

  std::shared_ptr<CsrArrays> owned_;
  std::shared_ptr<const void> external_;
};

}  // namespace wqe::graph
