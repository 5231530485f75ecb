#pragma once

/// \file cycles.h
/// \brief Bounded-length undirected cycle enumeration (§3 of the paper).
///
/// A cycle is a sequence of |C| distinct nodes, starting and ending at the
/// same node, with at least one edge between each consecutive pair,
/// direction ignored.  Length-2 cycles require two *parallel* edges (e.g.
/// mutual article links).  Cycles need not be chordless: the paper
/// deliberately does not enforce it ("we do not enforce the cycles to be
/// cordless"), and the dense cycles it favors are the chorded ones.  The
/// paper bounds |C| ≤ 5 because enumeration cost grows exponentially with
/// length — this implementation has the same asymptotics, which the perf
/// bench (E9) demonstrates.
///
/// Canonicalization: every cycle is emitted exactly once, as the rotation
/// starting at its smallest local id, oriented so the second node is
/// smaller than the last.  Subset views assign local ids in ascending
/// global order, so the canonical form is stable across view scopes.
///
/// The enumerator exploits the view's sorted flat rows: the canonical
/// start is the path minimum, so each DFS step binary-searches past the
/// dead `<= start` prefix.  Entering a start node marks its neighbours
/// in a byte array, so every closing-edge test is one load.  The last
/// level is fused: with one node left to add, the DFS scans the row part
/// above path[1] (the orientation rule) and emits each marked neighbour
/// in place instead of making one recursive call per leaf.  With seeds,
/// a path holding none is abandoned once d(u) + d(start) >
/// max_length + 1 − |path|, where u is its last node and d the distance
/// to the nearest seed measured by ball pruning's BFS (graph/ball_prune.h):
/// no extension can then reach a seed and still close in time.  Both
/// shortcuts skip only work that emits nothing, so the emitted stream is
/// the plain DFS's, cycle for cycle and in order (tests/cycles_test.cc
/// checks it against such a DFS).
///
/// Enumeration runs on the calling thread.  Parallelism lives one level
/// up: a `serve::Server` runs one request per pool worker, and
/// `analysis::QueryGraphAnalyzer::AnalyzeAll` fans topics across a pool.

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"
#include "graph/undirected_view.h"

namespace wqe::graph {

/// \brief One enumerated cycle; `nodes` holds global ids in cycle order
/// (first node is the canonical minimum; no repetition of the start).
struct Cycle {
  std::vector<NodeId> nodes;

  uint32_t length() const { return static_cast<uint32_t>(nodes.size()); }
};

/// \brief Enumeration parameters.
struct CycleEnumerationOptions {
  uint32_t min_length = 2;
  uint32_t max_length = 5;
  /// When non-empty, only cycles containing at least one seed are emitted
  /// (the paper keeps cycles touching an article of `L(q.k)`).
  std::vector<NodeId> seeds;
  /// Safety valve: stop after this many cycles (0 = unlimited).
  size_t max_cycles = 0;
  /// Prune the view to nodes that can lie on a qualifying cycle before
  /// enumerating (see graph/ball_prune.h: degree peeling + distance-to-
  /// seed filtering over a bitset).  The surviving subgraph is a superset
  /// of every qualifying cycle, so output — cycle set, order, truncation,
  /// visitor-abort prefix — is bit-identical either way; the knob only
  /// removes wasted DFS work.  It is an execution knob and deliberately
  /// NOT an `ExpanderOverrides` field: it must never split serving-cache
  /// keys.  Tests and the ball-pruning bench (E14) turn it off.
  bool prune_ball = true;
};

/// \brief Callback invoked per cycle with *local* view ids; return false to
/// abort enumeration early.
using CycleVisitor = std::function<bool(const std::vector<uint32_t>&)>;

/// \brief DFS cycle enumerator over an undirected view.
class CycleEnumerator {
 public:
  explicit CycleEnumerator(const UndirectedView& view) : view_(&view) {}

  /// \brief Materializes all cycles matching `options`.
  std::vector<Cycle> Enumerate(const CycleEnumerationOptions& options) const;

  /// \brief Streaming enumeration; avoids materializing cycles.
  /// Returns the number of cycles visited.  An expired ambient
  /// `common::Deadline` stops the run early; what was emitted is then a
  /// prefix of the full stream.
  size_t Visit(const CycleEnumerationOptions& options,
               const CycleVisitor& visitor) const;

 private:
  const UndirectedView* view_;
};

}  // namespace wqe::graph
