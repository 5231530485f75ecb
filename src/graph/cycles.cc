#include "graph/cycles.h"

#include <algorithm>

#include "common/deadline.h"
#include "graph/ball_prune.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wqe::graph {

namespace {

/// How many DFS extensions / start visits pass between cooperative
/// deadline/cancel checks.  Large enough that the clock read is noise
/// against the enumeration work, small enough that an expired deadline
/// stops the run soon after.  An extension includes its fused last level
/// and the visitor calls it makes: on servebench's cold_miss balls
/// (4-vCPU host, Release) 256 of them take about 15 µs at the median and
/// under 50 µs at p99.
constexpr int kExecCheckInterval = 256;

/// Whole-enumeration latency, shared by every enumerator: this is the
/// kernel the serve stack's `enumeration` span bottoms out in.
obs::Histogram* EnumerationHistogram() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "wqe.graph.enumeration_latency_ms");
  return histogram;
}

/// Read-only inputs of one run: the seed mask and what ball pruning
/// produced.
struct RunFilters {
  std::vector<uint8_t> seed_mask;  ///< by local id; empty = no seed filter
  std::vector<uint64_t> alive_bits;
  /// PruneBall's distance to the nearest seed by local id; empty when
  /// pruning is off, no seeds were given, or no BFS round completed.
  std::vector<uint32_t> seed_distance;
  bool pruned_any = false;

  /// Ball-pruning bitset by local id (graph/ball_prune.h); null when
  /// pruning is off or removed nothing, which keeps fully-alive scans
  /// free of bitset loads.  Dead nodes lie on no qualifying cycle, so
  /// skipping them changes no emission and no emission order.
  const uint64_t* alive() const {
    return pruned_any ? alive_bits.data() : nullptr;
  }

  RunFilters(const UndirectedView& view,
             const CycleEnumerationOptions& options) {
    if (!options.seeds.empty()) {
      seed_mask.assign(view.num_nodes(), 0);
      for (NodeId g : options.seeds) {
        const uint32_t local = view.ToLocal(g);
        if (local != UINT32_MAX) seed_mask[local] = 1;
      }
    }
    if (options.prune_ball && view.num_nodes() != 0) {
      pruned_any = PruneBall(view, options.seeds, options.max_length,
                             &alive_bits, &seed_distance)
                       .pruned_any();
    }
  }
};

/// DFS state for one enumeration run.  Each surviving cycle path goes to
/// the visitor; a false return, the `max_cycles` cap or an interruption
/// sets `aborted`, which unwinds the whole run.
struct DfsContext {
  const UndirectedView* view;
  const CycleEnumerationOptions* options;
  const CycleVisitor* visitor;
  const uint8_t* is_seed = nullptr;  ///< by local id (null = no filter)
  const uint64_t* alive = nullptr;   ///< see RunFilters::alive()
  /// Distance to the nearest seed by local id (null = no cut).  Every
  /// node the DFS reaches is alive, so its entry is finite.
  const uint32_t* seed_distance = nullptr;
  std::vector<uint8_t> on_path;
  /// Marks the neighbours above path[0] while its DFS runs, so every
  /// closing-edge test is one load.
  std::vector<uint8_t> closes;
  std::vector<uint32_t> path;
  uint32_t path_seeds = 0;  ///< seeds among `path`
  size_t emitted = 0;       ///< cycles handed to the visitor
  bool aborted = false;
  /// Whether the ambient ExecContext has anything to check; cached at
  /// construction so the (overwhelmingly common) no-deadline path costs
  /// one branch per check site.
  bool exec_active = false;
  /// Starts at 1 so the very first check consults the clock: a request
  /// that is already over budget then deterministically emits nothing.
  int check_countdown = 1;

  DfsContext(const UndirectedView& v, const CycleEnumerationOptions& o,
             const RunFilters& filters, const CycleVisitor& visit)
      : view(&v),
        options(&o),
        visitor(&visit),
        is_seed(filters.seed_mask.empty() ? nullptr
                                          : filters.seed_mask.data()),
        alive(filters.alive()),
        seed_distance(filters.seed_distance.empty()
                          ? nullptr
                          : filters.seed_distance.data()),
        on_path(v.num_nodes(), 0),
        closes(v.num_nodes(), 0),
        exec_active(common::CurrentExecContext().active()) {}

  /// Countdown-gated cooperative check: consults the clock / cancel flag
  /// every `kExecCheckInterval` calls, and aborts the run once the
  /// deadline has passed or cancellation was requested.
  bool Interrupted() {
    if (!exec_active || --check_countdown > 0) return false;
    check_countdown = kExecCheckInterval;
    aborted = common::ExecInterrupted();
    return aborted;
  }

  bool Alive(uint32_t v) const {
    return alive == nullptr || BallPruneAlive(alive, v);
  }

  uint32_t IsSeed(uint32_t v) const {
    return is_seed == nullptr ? 0 : is_seed[v];
  }

  void Push(uint32_t v) {
    path.push_back(v);
    on_path[v] = 1;
    path_seeds += IsSeed(v);
  }

  void Pop() {
    const uint32_t v = path.back();
    path.pop_back();
    on_path[v] = 0;
    path_seeds -= IsSeed(v);
  }

  /// True when no chord exists: the only adjacencies among path nodes are
  /// the consecutive ones (and the closing edge).
  bool PathIsChordless() const {
    const size_t n = path.size();
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 2; j < n; ++j) {
        if (i == 0 && j == n - 1) continue;  // closing edge
        if (view->HasEdge(path[i], path[j])) return false;
      }
    }
    return true;
  }

  void Emit() {
    if (is_seed != nullptr && path_seeds == 0) return;
    if (options->chordless_only && path.size() >= 4 && !PathIsChordless()) {
      return;
    }
    ++emitted;
    if (!(*visitor)(path) ||
        (options->max_cycles != 0 && emitted >= options->max_cycles)) {
      aborted = true;
    }
  }

  /// Length-2 cycles starting at `u`: adjacent pairs (u, v > u) with >= 2
  /// parallel edges, read straight off the multiplicity row.
  void Length2ForStart(uint32_t u) {
    std::span<const uint32_t> neighbors = view->Neighbors(u);
    std::span<const uint32_t> mults = view->Multiplicities(u);
    size_t first = std::upper_bound(neighbors.begin(), neighbors.end(), u) -
                   neighbors.begin();
    for (size_t i = first; i < neighbors.size() && !aborted; ++i) {
      if (mults[i] >= 2 && Alive(neighbors[i])) {
        path = {u, neighbors[i]};
        path_seeds = IsSeed(u) + IsSeed(neighbors[i]);
        Emit();
      }
    }
    path.clear();
    path_seeds = 0;
  }

  /// Canonical DFS rooted at `s` (cycles of length >= 3 whose minimum
  /// node is `s`).  Only neighbours above `s` can close such a cycle, so
  /// only those are marked.
  void DfsForStart(uint32_t s) {
    std::span<const uint32_t> neighbors = view->Neighbors(s);
    const auto above = std::upper_bound(neighbors.begin(), neighbors.end(), s);
    for (auto it = above; it != neighbors.end(); ++it) closes[*it] = 1;
    Push(s);
    Extend(s, s);
    Pop();
    for (auto it = above; it != neighbors.end(); ++it) closes[*it] = 0;
  }

  /// Extends the path, whose last node is `u`; `start` is path[0].
  ///
  /// Rows are sorted ascending and the start is the path minimum, so one
  /// binary search splits off the part of `u`'s row that can extend the
  /// path: everything up to `start` is excluded by canonicality.
  void Extend(uint32_t start, uint32_t u) {
    if (Interrupted()) return;
    const uint32_t len = static_cast<uint32_t>(path.size());
    // Seed-distance cut.  A seedless path can only gain its seed among
    // the k <= max_length - len nodes still to come.  A seed that is the
    // i-th of them lies i steps past `u` and k + 1 - i steps before
    // `start` along the cycle, so d(u) + d(start) <= k + 1.  Past that
    // bound nothing below this call can emit.
    if (path_seeds == 0 && seed_distance != nullptr &&
        seed_distance[u] + seed_distance[start] >
            options->max_length - len + 1) {
      return;
    }
    // Close the cycle when we are back at the start with enough nodes.
    // The orientation constraint path[1] < path.back() ensures each cycle
    // is emitted in only one of its two traversal directions.
    if (closes[u] && len >= 3 && len >= options->min_length && path[1] < u) {
      Emit();
      if (aborted) return;
    }
    std::span<const uint32_t> neighbors = view->Neighbors(u);
    if (len + 1 == options->max_length) {
      EmitLastLevel(neighbors);
      return;
    }
    for (auto it = std::upper_bound(neighbors.begin(), neighbors.end(), start);
         it != neighbors.end(); ++it) {
      const uint32_t v = *it;
      if (on_path[v] || !Alive(v)) continue;
      Push(v);
      Extend(start, v);
      Pop();
      if (aborted) return;
    }
  }

  /// The fused last level: `path` holds max_length - 1 nodes, so a
  /// neighbour of its last node can only join as the final node of a
  /// cycle.  Emits each neighbour that closes one in place, in row order:
  /// the same cycles in the same order as one recursive call per
  /// neighbour.  The binary search skips the neighbours up to path[1],
  /// which fail the orientation rule.
  void EmitLastLevel(std::span<const uint32_t> neighbors) {
    if (path.size() + 1 < options->min_length) return;
    for (auto it =
             std::upper_bound(neighbors.begin(), neighbors.end(), path[1]);
         it != neighbors.end(); ++it) {
      const uint32_t v = *it;
      if (!closes[v] || on_path[v] || !Alive(v)) continue;
      Push(v);
      Emit();
      Pop();
      if (aborted) return;
    }
  }
};

/// Visitor that materializes each local-id path as a global-id Cycle.
CycleVisitor CollectInto(const UndirectedView& view, std::vector<Cycle>* out) {
  return [&view, out](const std::vector<uint32_t>& local_cycle) {
    Cycle c;
    c.nodes.reserve(local_cycle.size());
    for (uint32_t local : local_cycle) {
      c.nodes.push_back(view.ToGlobal(local));
    }
    out->push_back(std::move(c));
    return true;
  };
}

}  // namespace

size_t CycleEnumerator::Visit(const CycleEnumerationOptions& options,
                              const CycleVisitor& visitor) const {
  obs::Span span("enumeration", EnumerationHistogram());
  const uint32_t n = view_->num_nodes();
  const RunFilters filters(*view_, options);
  DfsContext ctx(*view_, options, filters, visitor);
  if (options.min_length <= 2 && options.max_length >= 2) {
    for (uint32_t u = 0; u < n && !ctx.aborted; ++u) {
      if (ctx.Interrupted()) break;
      if (ctx.Alive(u)) ctx.Length2ForStart(u);
    }
  }
  if (options.max_length >= 3) {
    for (uint32_t s = 0; s < n && !ctx.aborted; ++s) {
      if (ctx.Interrupted()) break;
      if (ctx.Alive(s)) ctx.DfsForStart(s);
    }
  }
  return ctx.emitted;
}

std::vector<Cycle> CycleEnumerator::Enumerate(
    const CycleEnumerationOptions& options) const {
  std::vector<Cycle> out;
  Visit(options, CollectInto(*view_, &out));
  return out;
}

std::vector<Cycle> EnumerateCycles(const CsrGraph& csr,
                                   const std::vector<NodeId>& nodes,
                                   const CycleEnumerationOptions& options) {
  UndirectedView view(csr, nodes);
  CycleEnumerator enumerator(view);
  return enumerator.Enumerate(options);
}

}  // namespace wqe::graph
