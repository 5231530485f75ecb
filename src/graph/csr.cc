#include "graph/csr.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace wqe::graph {

namespace {

/// Sort key for one directed CSR row entry.
struct RowEntry {
  NodeId node;
  EdgeKind kind;

  bool operator<(const RowEntry& other) const {
    if (node != other.node) return node < other.node;
    return static_cast<uint8_t>(kind) < static_cast<uint8_t>(other.kind);
  }
};

/// Appends `row` (sorted by (node, kind)) to the flat arrays.
void AppendRow(std::vector<RowEntry>* row, std::vector<NodeId>* nodes,
               std::vector<EdgeKind>* kinds, std::vector<uint64_t>* offsets) {
  std::sort(row->begin(), row->end());
  for (const RowEntry& e : *row) {
    nodes->push_back(e.node);
    kinds->push_back(e.kind);
  }
  offsets->push_back(nodes->size());
  row->clear();
}

/// Row view over not-yet-bound vectors (Freeze reads the directed arrays
/// back while building the undirected CSR, before any span is bound).
template <typename T>
std::span<const T> VectorRow(const std::vector<T>& data,
                             const std::vector<uint64_t>& offsets, NodeId n) {
  return std::span<const T>(data.data() + offsets[n],
                            data.data() + offsets[n + 1]);
}

}  // namespace

void CsrGraph::BindSpans(const CsrArrays& arrays) {
  kinds_ = arrays.kinds;
  redirect_target_ = arrays.redirect_target;
  out_offsets_ = arrays.out_offsets;
  out_targets_ = arrays.out_targets;
  out_kinds_ = arrays.out_kinds;
  in_offsets_ = arrays.in_offsets;
  in_sources_ = arrays.in_sources;
  in_kinds_ = arrays.in_kinds;
  und_offsets_ = arrays.und_offsets;
  und_neighbors_ = arrays.und_neighbors;
  und_mult_ = arrays.und_mult;
}

CsrGraph CsrGraph::Freeze(const PropertyGraph& builder) {
  CsrGraph g;
  CsrArrays a;
  const uint32_t n = static_cast<uint32_t>(builder.num_nodes());

  a.kinds.reserve(n);
  a.redirect_target.assign(n, kInvalidNode);
  for (NodeId u = 0; u < n; ++u) {
    NodeKind kind = builder.kind(u);
    a.kinds.push_back(kind);
    ++g.node_kind_counts_[static_cast<size_t>(kind)];
  }
  for (int k = 0; k < 4; ++k) {
    g.edge_kind_counts_[k] = builder.CountEdges(static_cast<EdgeKind>(k));
  }

  // --- Directed CSR, each row sorted by (target, kind). ---
  a.out_offsets.reserve(n + 1);
  a.in_offsets.reserve(n + 1);
  a.out_offsets.push_back(0);
  a.in_offsets.push_back(0);
  a.out_targets.reserve(builder.num_edges());
  a.out_kinds.reserve(builder.num_edges());
  a.in_sources.reserve(builder.num_edges());
  a.in_kinds.reserve(builder.num_edges());
  std::vector<RowEntry> row;
  for (NodeId u = 0; u < n; ++u) {
    for (const Edge& e : builder.OutEdges(u)) {
      row.push_back({e.dst, e.kind});
      if (e.kind == EdgeKind::kRedirect &&
          a.redirect_target[u] == kInvalidNode) {
        a.redirect_target[u] = e.dst;
      }
    }
    AppendRow(&row, &a.out_targets, &a.out_kinds, &a.out_offsets);
  }
  for (NodeId u = 0; u < n; ++u) {
    for (const Edge& e : builder.InEdges(u)) {
      row.push_back({e.dst, e.kind});  // e.dst is the *source* in in-lists
    }
    AppendRow(&row, &a.in_sources, &a.in_kinds, &a.in_offsets);
  }

  // --- Undirected CSR (redirects excluded): merge the two sorted rows of
  // every node, counting parallel edges per distinct neighbor. ---
  a.und_offsets.reserve(n + 1);
  a.und_offsets.push_back(0);
  for (NodeId u = 0; u < n; ++u) {
    std::span<const NodeId> out = VectorRow(a.out_targets, a.out_offsets, u);
    std::span<const EdgeKind> out_kinds =
        VectorRow(a.out_kinds, a.out_offsets, u);
    std::span<const NodeId> in = VectorRow(a.in_sources, a.in_offsets, u);
    std::span<const EdgeKind> in_kinds =
        VectorRow(a.in_kinds, a.in_offsets, u);
    size_t i = 0, j = 0;
    auto skip_redirects = [&] {
      while (i < out.size() && out_kinds[i] == EdgeKind::kRedirect) ++i;
      while (j < in.size() && in_kinds[j] == EdgeKind::kRedirect) ++j;
    };
    skip_redirects();
    while (i < out.size() || j < in.size()) {
      NodeId next;
      if (j >= in.size() || (i < out.size() && out[i] <= in[j])) {
        next = out[i];
      } else {
        next = in[j];
      }
      uint32_t mult = 0;
      while (i < out.size() && out[i] == next) {
        if (out_kinds[i] != EdgeKind::kRedirect) ++mult;
        ++i;
      }
      while (j < in.size() && in[j] == next) {
        if (in_kinds[j] != EdgeKind::kRedirect) ++mult;
        ++j;
      }
      if (mult > 0) {
        a.und_neighbors.push_back(next);
        a.und_mult.push_back(mult);
      }
      skip_redirects();
    }
    a.und_offsets.push_back(a.und_neighbors.size());
  }
  g.owned_ = std::make_shared<CsrArrays>(std::move(a));
  g.BindSpans(*g.owned_);
  // Debug builds verify the snapshot before anything can run on it; a
  // violation here is a Freeze bug, not bad input.
  g.DCheckInvariants();
  return g;
}

CsrGraph CsrGraph::FromSections(const CsrSections& sections,
                                std::shared_ptr<const void> storage) {
  CsrGraph g;
  g.external_ = std::move(storage);
  g.kinds_ = sections.kinds;
  g.redirect_target_ = sections.redirect_target;
  g.out_offsets_ = sections.out_offsets;
  g.out_targets_ = sections.out_targets;
  g.out_kinds_ = sections.out_kinds;
  g.in_offsets_ = sections.in_offsets;
  g.in_sources_ = sections.in_sources;
  g.in_kinds_ = sections.in_kinds;
  g.und_offsets_ = sections.und_offsets;
  g.und_neighbors_ = sections.und_neighbors;
  g.und_mult_ = sections.und_mult;
  for (size_t k = 0; k < 4; ++k) {
    g.edge_kind_counts_[k] = static_cast<size_t>(sections.edge_kind_counts[k]);
  }
  for (size_t k = 0; k < 2; ++k) {
    g.node_kind_counts_[k] = static_cast<size_t>(sections.node_kind_counts[k]);
  }
  return g;
}

CsrSections CsrGraph::Sections() const {
  CsrSections s;
  s.kinds = kinds_;
  s.redirect_target = redirect_target_;
  s.out_offsets = out_offsets_;
  s.out_targets = out_targets_;
  s.out_kinds = out_kinds_;
  s.in_offsets = in_offsets_;
  s.in_sources = in_sources_;
  s.in_kinds = in_kinds_;
  s.und_offsets = und_offsets_;
  s.und_neighbors = und_neighbors_;
  s.und_mult = und_mult_;
  for (size_t k = 0; k < 4; ++k) {
    s.edge_kind_counts[k] = static_cast<uint64_t>(edge_kind_counts_[k]);
  }
  for (size_t k = 0; k < 2; ++k) {
    s.node_kind_counts[k] = static_cast<uint64_t>(node_kind_counts_[k]);
  }
  return s;
}

namespace {

/// Shared shape checks for one CSR direction: zero-based monotone
/// offsets ending at the data size, a kind array parallel to the node
/// array, in-range endpoints, rows sorted by (node, kind).
Status CheckDirectedCsr(const char* what, uint32_t n,
                        std::span<const uint64_t> offsets,
                        std::span<const NodeId> nodes,
                        std::span<const EdgeKind> kinds) {
  if (offsets.size() != static_cast<size_t>(n) + 1) {
    return Status::Internal(what, ": offsets size ", offsets.size(),
                            " != num_nodes + 1 = ", n + 1);
  }
  if (offsets.front() != 0) {
    return Status::Internal(what, ": offsets[0] != 0");
  }
  if (offsets.back() != nodes.size()) {
    return Status::Internal(what, ": offsets end at ", offsets.back(),
                            " but row data holds ", nodes.size());
  }
  if (kinds.size() != nodes.size()) {
    return Status::Internal(what, ": kind array size ", kinds.size(),
                            " != node array size ", nodes.size());
  }
  // Monotonicity first: with offsets[0] == 0 and offsets[n] == size
  // already verified, a fully monotone array keeps every row index in
  // bounds — only then is it safe to dereference row data below.
  for (NodeId u = 0; u < n; ++u) {
    if (offsets[u] > offsets[u + 1]) {
      return Status::Internal(what, ": offsets not monotone at node ", u);
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    for (uint64_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      if (nodes[i] >= n) {
        return Status::Internal(what, ": node ", u, " row entry ", nodes[i],
                                " out of range");
      }
      if (i > offsets[u] &&
          RowEntry{nodes[i], kinds[i]} < RowEntry{nodes[i - 1], kinds[i - 1]}) {
        return Status::Internal(what, ": node ", u,
                                " row not sorted by (target, kind)");
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status CsrGraph::CheckInvariants() const {
  const uint32_t n = num_nodes();
  if (n == 0 && out_offsets_.empty()) {
    return Status::OK();  // default-constructed, never frozen
  }
  if (redirect_target_.size() != n) {
    return Status::Internal("redirect table size ", redirect_target_.size(),
                            " != num_nodes ", n);
  }
  // Kind bytes must name a real NodeKind before they are used as count
  // indices (snapshot-loaded sections are raw file bytes).
  for (NodeKind kind : kinds_) {
    if (static_cast<uint8_t>(kind) >= 2) {
      return Status::Internal("node kind byte ",
                              static_cast<uint32_t>(kind), " out of range");
    }
  }
  std::array<size_t, 2> node_counts{};
  for (NodeKind kind : kinds_) ++node_counts[static_cast<size_t>(kind)];
  if (node_counts != node_kind_counts_) {
    return Status::Internal("node kind counts out of sync with kinds array");
  }

  WQE_RETURN_NOT_OK(
      CheckDirectedCsr("out CSR", n, out_offsets_, out_targets_, out_kinds_));
  WQE_RETURN_NOT_OK(
      CheckDirectedCsr("in CSR", n, in_offsets_, in_sources_, in_kinds_));
  if (in_sources_.size() != out_targets_.size()) {
    return Status::Internal("in CSR holds ", in_sources_.size(),
                            " edges, out CSR holds ", out_targets_.size());
  }
  for (EdgeKind kind : out_kinds_) {
    if (static_cast<uint8_t>(kind) >= 4) {
      return Status::Internal("edge kind byte ",
                              static_cast<uint32_t>(kind), " out of range");
    }
  }
  std::array<size_t, 4> edge_counts{};
  for (EdgeKind kind : out_kinds_) ++edge_counts[static_cast<size_t>(kind)];
  if (edge_counts != edge_kind_counts_) {
    return Status::Internal("edge kind counts out of sync with out CSR");
  }

  // Redirect table ↔ redirect out-edges: a node with no redirect edge
  // maps to kInvalidNode; otherwise the table holds one of its redirect
  // targets (Freeze keeps the first in insertion order, which need not
  // be first in the sorted row).
  for (NodeId u = 0; u < n; ++u) {
    bool has_redirect = false;
    bool table_matches = false;
    std::span<const NodeId> targets = OutTargets(u);
    std::span<const EdgeKind> kinds = OutKinds(u);
    for (size_t i = 0; i < targets.size(); ++i) {
      if (kinds[i] == EdgeKind::kRedirect) {
        has_redirect = true;
        if (redirect_target_[u] == targets[i]) table_matches = true;
      }
    }
    const bool table_ok = has_redirect
                              ? table_matches
                              : redirect_target_[u] == kInvalidNode;
    if (!table_ok) {
      return Status::Internal("redirect table disagrees with out edges at ",
                              "node ", u);
    }
  }

  // Undirected CSR: shape, strict ascending distinct neighbors, positive
  // multiplicities, (u,v) ↔ (v,u) symmetry, and total mass — every
  // non-redirect directed edge contributes one multiplicity unit at each
  // endpoint.
  if (und_offsets_.size() != static_cast<size_t>(n) + 1 ||
      und_offsets_.front() != 0 ||
      und_offsets_.back() != und_neighbors_.size() ||
      und_mult_.size() != und_neighbors_.size()) {
    return Status::Internal("undirected CSR arrays misshapen");
  }
  for (NodeId u = 0; u < n; ++u) {
    if (und_offsets_[u] > und_offsets_[u + 1]) {
      return Status::Internal("undirected offsets not monotone at node ", u);
    }
  }
  uint64_t total_mult = 0;
  for (NodeId u = 0; u < n; ++u) {
    std::span<const NodeId> neighbors = UndNeighbors(u);
    std::span<const uint32_t> mults = UndMultiplicities(u);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      if (neighbors[i] >= n) {
        return Status::Internal("undirected neighbor out of range at node ",
                                u);
      }
      if (i > 0 && neighbors[i] <= neighbors[i - 1]) {
        return Status::Internal("undirected row not strictly ascending at ",
                                "node ", u);
      }
      if (mults[i] == 0) {
        return Status::Internal("zero multiplicity stored at node ", u);
      }
      if (UndMultiplicity(neighbors[i], u) != mults[i]) {
        return Status::Internal("undirected multiplicity asymmetric for (", u,
                                ", ", neighbors[i], ")");
      }
      total_mult += mults[i];
    }
  }
  const uint64_t non_redirect_edges =
      num_edges() -
      edge_kind_counts_[static_cast<size_t>(EdgeKind::kRedirect)];
  if (total_mult != 2 * non_redirect_edges) {
    return Status::Internal("undirected multiplicity mass ", total_mult,
                            " != 2 * non-redirect edges ",
                            2 * non_redirect_edges);
  }
  return Status::OK();
}

void CsrGraph::DCheckInvariants() const { WQE_DCHECK_OK(CheckInvariants()); }

bool CsrGraph::HasEdge(NodeId src, NodeId dst, EdgeKind kind) const {
  if (src >= num_nodes() || dst >= num_nodes()) return false;
  std::span<const NodeId> targets = OutTargets(src);
  std::span<const EdgeKind> kinds = OutKinds(src);
  auto it = std::lower_bound(targets.begin(), targets.end(), dst);
  for (; it != targets.end() && *it == dst; ++it) {
    if (kinds[static_cast<size_t>(it - targets.begin())] == kind) return true;
  }
  return false;
}

uint32_t CsrGraph::UndMultiplicity(NodeId u, NodeId v) const {
  std::span<const NodeId> neigh = UndNeighbors(u);
  auto it = std::lower_bound(neigh.begin(), neigh.end(), v);
  if (it == neigh.end() || *it != v) return 0;
  return UndMultiplicities(u)[static_cast<size_t>(it - neigh.begin())];
}

}  // namespace wqe::graph
