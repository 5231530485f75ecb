#include "graph/undirected_view.h"

#include <algorithm>

namespace wqe::graph {

UndirectedView::UndirectedView(const CsrGraph& csr)
    : csr_(&csr),
      num_nodes_(csr.num_nodes()),
      num_pairs_(csr.num_und_pairs()) {}

UndirectedView::UndirectedView(const CsrGraph& csr,
                               const std::vector<NodeId>& nodes)
    : csr_(&csr), subset_(true), global_(nodes) {
  std::sort(global_.begin(), global_.end());
  global_.erase(std::unique(global_.begin(), global_.end()), global_.end());
  num_nodes_ = static_cast<uint32_t>(global_.size());

  offsets_.reserve(num_nodes_ + 1);
  offsets_.push_back(0);
  for (uint32_t u = 0; u < num_nodes_; ++u) {
    // Intersect the parent's sorted row with the sorted member list; the
    // member index *is* the neighbor's local id.
    std::span<const NodeId> neigh = csr_->UndNeighbors(global_[u]);
    std::span<const uint32_t> mults = csr_->UndMultiplicities(global_[u]);
    size_t i = 0;
    uint32_t m = 0;
    while (i < neigh.size() && m < num_nodes_) {
      if (neigh[i] < global_[m]) {
        ++i;
      } else if (neigh[i] > global_[m]) {
        ++m;
      } else {
        neighbors_.push_back(m);
        mult_.push_back(mults[i]);
        ++i;
        ++m;
      }
    }
    offsets_.push_back(neighbors_.size());
  }
  num_pairs_ = neighbors_.size() / 2;
}

uint32_t UndirectedView::ToLocal(NodeId global) const {
  if (!subset_) {
    return global < num_nodes_ ? global : UINT32_MAX;
  }
  auto it = std::lower_bound(global_.begin(), global_.end(), global);
  if (it == global_.end() || *it != global) return UINT32_MAX;
  return static_cast<uint32_t>(it - global_.begin());
}

bool UndirectedView::HasEdge(uint32_t u, uint32_t v) const {
  std::span<const uint32_t> neigh = Neighbors(u);
  return std::binary_search(neigh.begin(), neigh.end(), v);
}

uint32_t UndirectedView::Multiplicity(uint32_t u, uint32_t v) const {
  std::span<const uint32_t> neigh = Neighbors(u);
  auto it = std::lower_bound(neigh.begin(), neigh.end(), v);
  if (it == neigh.end() || *it != v) return 0;
  return Multiplicities(u)[static_cast<size_t>(it - neigh.begin())];
}

}  // namespace wqe::graph
