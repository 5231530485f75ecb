#pragma once

/// \file graph.h
/// \brief The typed property graph underlying all structural analysis.
///
/// Nodes are Wikipedia entries (Article or Category); edges carry the
/// schema semantics of the paper's Figure 1: article→article `link`,
/// article→category `belongs`, category→category `inside`, and
/// article→article `redirect`.  The graph is a *directed multigraph*:
/// mutual links (a→b and b→a) are two distinct edges, which is exactly what
/// makes the paper's length-2 cycles possible.

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace wqe::graph {

/// \brief Dense node identifier.
using NodeId = uint32_t;

/// \brief Sentinel for "no node".
inline constexpr NodeId kInvalidNode = UINT32_MAX;

/// \brief Node type per the paper's Figure 1 schema.
enum class NodeKind : uint8_t {
  kArticle = 0,
  kCategory = 1,
};

/// \brief Edge type per the paper's Figure 1 schema.
enum class EdgeKind : uint8_t {
  kLink = 0,      ///< article → article hyperlink
  kBelongs = 1,   ///< article → category membership
  kInside = 2,    ///< category → parent category
  kRedirect = 3,  ///< redirect article → main article
};

const char* NodeKindToString(NodeKind kind);
const char* EdgeKindToString(EdgeKind kind);

/// \brief One directed edge as stored in adjacency lists.
struct Edge {
  NodeId dst = kInvalidNode;
  EdgeKind kind = EdgeKind::kLink;

  bool operator==(const Edge& other) const = default;
};

/// \brief Mutable directed multigraph with typed nodes and edges.
///
/// Building is append-only: `AddNode` then `AddEdge`.  Schema validity
/// (e.g. `belongs` must go article→category) is enforced at insertion so
/// downstream algorithms can rely on it.
class PropertyGraph {
 public:
  PropertyGraph() = default;

  /// \brief Adds a node and returns its id.  Names live in the layer
  /// above (the KB's title blobs), not here.
  NodeId AddNode(NodeKind kind);

  /// \brief Adds a typed edge; validates endpoint kinds against the schema
  /// and rejects self-loops and duplicate identical edges.
  Status AddEdge(NodeId src, NodeId dst, EdgeKind kind);

  /// \brief True when an edge (src, dst, kind) exists.
  bool HasEdge(NodeId src, NodeId dst, EdgeKind kind) const;

  size_t num_nodes() const { return kinds_.size(); }
  size_t num_edges() const { return num_edges_; }

  NodeKind kind(NodeId n) const { return kinds_[n]; }
  bool IsArticle(NodeId n) const { return kinds_[n] == NodeKind::kArticle; }
  bool IsCategory(NodeId n) const { return kinds_[n] == NodeKind::kCategory; }

  /// \brief Outgoing edges of `n`.
  const std::vector<Edge>& OutEdges(NodeId n) const { return out_[n]; }

  /// \brief Incoming edges of `n` (edge.dst is the *source* node here).
  const std::vector<Edge>& InEdges(NodeId n) const { return in_[n]; }

  /// \brief Out-degree counting all edge kinds.
  size_t OutDegree(NodeId n) const { return out_[n].size(); }
  size_t InDegree(NodeId n) const { return in_[n].size(); }

  /// \brief Number of nodes of the given kind.
  size_t CountNodes(NodeKind kind) const;

  /// \brief Number of edges of the given kind.
  size_t CountEdges(EdgeKind kind) const;

  /// \brief Validates `n` is a node of this graph.
  Status CheckNode(NodeId n) const;

 private:
  std::vector<NodeKind> kinds_;
  std::vector<std::vector<Edge>> out_;
  std::vector<std::vector<Edge>> in_;
  size_t num_edges_ = 0;
  std::vector<size_t> edge_kind_counts_ = std::vector<size_t>(4, 0);
};

}  // namespace wqe::graph
