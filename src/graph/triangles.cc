#include "graph/triangles.h"

#include <span>

namespace wqe::graph {

namespace {

/// True when two neighbours of `u` are adjacent.  Rows are sorted and
/// unique and hold no self-loop (the builder refuses them), so any such
/// pair closes a triangle of three distinct nodes.
bool OnTriangle(const UndirectedView& view, uint32_t u) {
  const std::span<const uint32_t> neighbors = view.Neighbors(u);
  for (size_t i = 0; i < neighbors.size(); ++i) {
    for (size_t j = i + 1; j < neighbors.size(); ++j) {
      if (view.HasEdge(neighbors[i], neighbors[j])) return true;
    }
  }
  return false;
}

}  // namespace

double TriangleParticipationRatio(const UndirectedView& view,
                                  const std::vector<uint32_t>& nodes) {
  if (nodes.empty()) return 0.0;
  size_t in_triangle = 0;
  for (uint32_t u : nodes) {
    if (OnTriangle(view, u)) ++in_triangle;
  }
  return static_cast<double>(in_triangle) / static_cast<double>(nodes.size());
}

}  // namespace wqe::graph
