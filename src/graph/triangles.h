#pragma once

/// \file triangles.h
/// \brief The triangle participation ratio (TPR).
///
/// §3 of the paper reports an average TPR ≈ 0.3 for the largest connected
/// components — notable because the category graph alone is tree-like and
/// thus triangle-free.  TPR is the fraction of nodes belonging to at least
/// one triangle.

#include <cstdint>
#include <vector>

#include "graph/undirected_view.h"

namespace wqe::graph {

/// \brief TPR restricted to a node subset (e.g. a single component): the
/// fraction of `nodes` that lie on a triangle of `view`.  0 when `nodes`
/// is empty.
double TriangleParticipationRatio(const UndirectedView& view,
                                  const std::vector<uint32_t>& nodes);

}  // namespace wqe::graph
