#include "graph/subgraph.h"

#include <algorithm>

namespace wqe::graph {

NodeId CsrSubgraph::Local(NodeId parent_id) const {
  auto it = std::lower_bound(to_parent.begin(), to_parent.end(), parent_id);
  if (it == to_parent.end() || *it != parent_id) return kInvalidNode;
  return static_cast<NodeId>(it - to_parent.begin());
}

CsrSubgraph InduceCsr(const CsrGraph& csr, const std::vector<NodeId>& nodes) {
  CsrSubgraph sub;
  sub.parent = &csr;
  sub.to_parent = nodes;
  std::sort(sub.to_parent.begin(), sub.to_parent.end());
  sub.to_parent.erase(
      std::unique(sub.to_parent.begin(), sub.to_parent.end()),
      sub.to_parent.end());

  const uint32_t n = sub.num_nodes();
  sub.out_offsets.assign(n + 1, 0);
  for (uint32_t lu = 0; lu < n; ++lu) {
    std::span<const NodeId> targets = csr.OutTargets(sub.to_parent[lu]);
    std::span<const EdgeKind> kinds = csr.OutKinds(sub.to_parent[lu]);
    // Two-pointer merge: both sequences ascend by node id (duplicate
    // targets — parallel edges of different kinds — sit adjacent in the
    // row, so the member pointer holds while they drain).
    size_t i = 0;
    uint32_t j = 0;
    while (i < targets.size() && j < n) {
      if (targets[i] < sub.to_parent[j]) {
        ++i;
      } else if (sub.to_parent[j] < targets[i]) {
        ++j;
      } else {
        sub.out_targets.push_back(j);
        sub.out_kinds.push_back(kinds[i]);
        ++i;
      }
    }
    sub.out_offsets[lu + 1] = sub.out_targets.size();
  }
  return sub;
}

}  // namespace wqe::graph
