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
/// The DFS runs over bit rows.  Each local id gets a row of ⌈n/64⌉
/// words with one bit per alive neighbour (ball pruning's survivors,
/// graph/ball_prune.h), and the path is a word mask too.  The canonical
/// start is the path minimum, so an extension's candidates are
/// row(u) ∧ ¬on_path ∧ above(start).  The last level is fused: with one
/// node left to add, the candidates are row(u) ∧ row(start) ∧ ¬on_path ∧
/// above(path[1]) (the orientation rule), narrowed to the seeds when the
/// path holds none, and each is emitted in place instead of making one
/// recursive call per leaf.  Candidates are taken lowest bit first.
/// Bit order is ascending local-id order, which is the order of the
/// view's sorted rows, so the emission order is the one a plain DFS over
/// those rows produces.  With seeds, a path holding none is abandoned
/// once d(u) + d(start) > max_length + 1 − |path|, where u is its last
/// node and d the distance to the nearest seed measured by ball pruning's
/// BFS: no extension can then reach a seed and still close in time.
/// Every shortcut skips only work that emits nothing, so the emitted
/// stream is the plain DFS's, cycle for cycle and in order
/// (tests/cycles_test.cc checks it against such a DFS).  Length-2 cycles
/// are read off the multiplicity rows, not the bit rows.
///
/// The rows take n²/8 bytes for a view of n nodes, so a view may have at
/// most `kMaxCycleViewNodes` nodes (2 MiB of rows); `Visit` WQE_CHECKs
/// it.  The cycle expander, whose ball grows with the number of articles
/// a request links, refuses a larger ball with a status before it
/// enumerates (expansion/cycle_expander.h).
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

/// \brief Largest view `CycleEnumerator` accepts (see the file comment).
inline constexpr uint32_t kMaxCycleViewNodes = 4096;

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

/// \brief DFS cycle enumerator over an undirected view of at most
/// `kMaxCycleViewNodes` nodes.
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
