#pragma once

/// \file cycles.h
/// \brief Bounded-length undirected cycle enumeration (§3 of the paper).
///
/// A cycle is a sequence of |C| distinct nodes, starting and ending at the
/// same node, with at least one edge between each consecutive pair,
/// direction ignored.  Length-2 cycles require two *parallel* edges (e.g.
/// mutual article links).  Cycles need not be chordless.  The paper bounds
/// |C| ≤ 5 because enumeration cost grows exponentially with length — this
/// implementation has the same asymptotics, which the perf bench (E9)
/// demonstrates.
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
/// Parallelism: canonical start nodes are independent units of work, so
/// the enumerator can shard them into degree-balanced chunks executed on
/// a `serve::ThreadPool` (work-stealing via an atomic chunk cursor; the
/// calling thread participates).  Per-chunk cycle buffers are merged in
/// start-node order, so parallel output — including `max_cycles`
/// truncation and visitor-abort semantics — is bit-identical to the
/// sequential enumerator at every thread count.  Enumeration requested
/// from a pool worker degrades to sequential instead of deadlocking on
/// pool capacity (see `serve::ThreadPool::CurrentWorkerPool`).

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"
#include "graph/undirected_view.h"

// Deliberate graph/ -> serve/ edge (one static library, no build cycle):
// the pool and the degrade-aware fan-out policy live with the serving
// layer that owns process-wide threading, and the enumerator executes on
// them rather than growing a second threading runtime here.
namespace wqe::serve {
class ThreadPool;
}  // namespace wqe::serve

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
  /// Restrict to chordless (induced) cycles: no edge between any pair of
  /// non-consecutive cycle nodes.  The paper deliberately does *not*
  /// enforce this ("we do not enforce the cycles to be cordless"); the
  /// option exists to quantify that choice (every chordless cycle has
  /// extra-edge density 0, so the dense cycles the paper favors are
  /// exactly the chorded ones).  Length-2 cycles are trivially chordless.
  bool chordless_only = false;
  /// Prune the view to nodes that can lie on a qualifying cycle before
  /// enumerating (see graph/ball_prune.h: degree peeling + distance-to-
  /// seed filtering over a bitset).  The surviving subgraph is a superset
  /// of every qualifying cycle, so output — cycle set, order, truncation,
  /// visitor-abort prefix — is bit-identical either way; the knob only
  /// removes wasted DFS work.  Like `num_threads` below, this is an
  /// execution knob and deliberately NOT an `ExpanderOverrides` field:
  /// it must never split serving-cache keys.
  bool prune_ball = true;

  /// \name Parallel execution
  /// Output is bit-identical to sequential enumeration regardless of
  /// these knobs; they only change wall-clock and where the work runs.
  /// @{
  /// Enumerating threads including the caller: 1 = sequential (default),
  /// 0 = auto (the pool's worker count + 1 when `pool` is set, otherwise
  /// one per hardware thread).  Requests from a pool worker thread always
  /// degrade to sequential — nested fan-out would deadlock a bounded
  /// pool (see serve::ThreadPool::CurrentWorkerPool).
  uint32_t num_threads = 1;
  /// Pool to run on (borrowed; e.g. `serve::Server`'s).  When null and
  /// `num_threads > 1`, a transient pool is spawned for the call — fine
  /// for offline analysis, wasteful per-request; serving-path callers
  /// pass their own pool.
  serve::ThreadPool* pool = nullptr;
  /// Cap on start nodes per work chunk (0 = auto degree-balanced
  /// chunking, ~8 chunks per thread).  Mainly a testing knob: chunk size
  /// 1 maximizes interleaving, the adversarial case for merge order.
  uint32_t parallel_chunk_starts = 0;
  /// @}
};

/// \brief Callback invoked per cycle with *local* view ids; return false to
/// abort enumeration early.
using CycleVisitor = std::function<bool(const std::vector<uint32_t>&)>;

/// \brief DFS cycle enumerator over an undirected view.
class CycleEnumerator {
 public:
  explicit CycleEnumerator(const UndirectedView& view) : view_(&view) {}

  /// \brief Materializes all cycles matching `options`.  Dispatches to
  /// `ParallelEnumerate` when the options request parallelism.
  std::vector<Cycle> Enumerate(const CycleEnumerationOptions& options) const;

  /// \brief Streaming enumeration; avoids materializing cycles.
  /// Returns the number of cycles visited.  Dispatches to `ParallelVisit`
  /// when the options request parallelism.
  size_t Visit(const CycleEnumerationOptions& options,
               const CycleVisitor& visitor) const;

  /// \brief Explicit parallel entry points.  Workers collect per-chunk
  /// cycle buffers which are merged in canonical order on the calling
  /// thread; the visitor runs there, sequentially, in the exact order the
  /// sequential enumerator would have produced — so aborting visitors and
  /// `max_cycles` behave identically (enumeration work past an abort is
  /// wasted, not wrong).  Falls back to the sequential path when the
  /// effective thread count is 1, the view is tiny, or the caller is
  /// already a pool worker.
  /// @{
  std::vector<Cycle> ParallelEnumerate(
      const CycleEnumerationOptions& options) const;
  size_t ParallelVisit(const CycleEnumerationOptions& options,
                       const CycleVisitor& visitor) const;
  /// @}

 private:
  size_t SequentialVisit(const CycleEnumerationOptions& options,
                         const CycleVisitor& visitor) const;

  const UndirectedView* view_;
};

/// \brief Convenience: enumerates cycles of the subgraph induced by
/// `nodes` (sliced from the frozen snapshot), keeping only those
/// containing a seed, with global-id output.
std::vector<Cycle> EnumerateCycles(const CsrGraph& csr,
                                   const std::vector<NodeId>& nodes,
                                   const CycleEnumerationOptions& options);

}  // namespace wqe::graph
