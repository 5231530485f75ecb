#include "graph/cycles.h"

#include <algorithm>
#include <atomic>

#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/mutex.h"
#include "graph/ball_prune.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/thread_pool.h"

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

/// Whole-enumeration latency (sequential or parallel), shared by every
/// enumerator: this is the kernel the serve stack's `enumeration` span
/// bottoms out in.
obs::Histogram* EnumerationHistogram() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "wqe.graph.enumeration_latency_ms");
  return histogram;
}

/// Read-only inputs shared by every DfsContext of one run: the seed mask
/// and what ball pruning produced.  The parallel path builds it after its
/// sequential fallbacks, so pruning is never computed twice.
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

/// DFS state for one enumeration run (one thread's worth: the parallel
/// path gives every worker its own context over the shared view).
///
/// `sink` receives each surviving cycle path; returning false aborts this
/// context's enumeration.  The sequential path wires the user visitor plus
/// emission counting straight in; parallel workers wire a buffer append.
struct DfsContext {
  const UndirectedView* view;
  const CycleEnumerationOptions* options;
  const uint8_t* is_seed = nullptr;  ///< by local id (null = no filter)
  const uint64_t* alive = nullptr;   ///< see RunFilters::alive()
  /// Distance to the nearest seed by local id (null = no cut).  Every
  /// node the DFS reaches is alive, so its entry is finite.
  const uint32_t* seed_distance = nullptr;
  std::function<bool(const std::vector<uint32_t>&)> sink;
  std::vector<uint8_t> on_path;
  /// Marks the neighbours above path[0] while its DFS runs, so every
  /// closing-edge test is one load.
  std::vector<uint8_t> closes;
  std::vector<uint32_t> path;
  uint32_t path_seeds = 0;  ///< seeds among `path`
  bool aborted = false;
  /// Sticky: set once the ambient deadline fires or cancellation is
  /// requested.  Distinct from `aborted` (which a visitor can also set)
  /// so the parallel path can tell a truncated chunk from a capped one.
  bool interrupted = false;
  /// Whether the ambient ExecContext has anything to check; cached at
  /// Init so the (overwhelmingly common) no-deadline path costs one
  /// branch per check site.
  bool exec_active = false;
  /// Starts at 1 so the very first check consults the clock: a request
  /// that is already over budget then deterministically emits nothing,
  /// at any thread count.
  int check_countdown = 1;

  void Init(const UndirectedView& v, const CycleEnumerationOptions& o,
            const RunFilters& filters) {
    view = &v;
    options = &o;
    is_seed = filters.seed_mask.empty() ? nullptr : filters.seed_mask.data();
    alive = filters.alive();
    seed_distance = filters.seed_distance.empty()
                        ? nullptr
                        : filters.seed_distance.data();
    on_path.assign(v.num_nodes(), 0);
    closes.assign(v.num_nodes(), 0);
    exec_active = common::CurrentExecContext().active();
  }

  /// Countdown-gated cooperative check: consults the clock / cancel flag
  /// every `kExecCheckInterval` calls.  Sticky once interrupted.
  bool CheckInterrupt() {
    if (!exec_active) return false;
    if (interrupted) return true;
    if (--check_countdown > 0) return false;
    check_countdown = kExecCheckInterval;
    interrupted = common::ExecInterrupted();
    return interrupted;
  }

  /// Immediate cooperative check (no countdown) for coarse boundaries —
  /// chunk claims — where the check cost is already amortized.
  bool CheckInterruptNow() {
    if (!exec_active) return false;
    if (!interrupted) interrupted = common::ExecInterrupted();
    return interrupted;
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
    if (!sink(path)) aborted = true;
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
    if (CheckInterrupt()) {
      aborted = true;
      return;
    }
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

/// One chunk's output.  Cycles are stored flattened (lengths + node data)
/// to keep the collection allocation-light; the two phases are kept in
/// separate streams because the sequential enumerator emits *all*
/// length-2 cycles (by start) before *any* DFS cycle.
struct ChunkBuffer {
  std::vector<uint32_t> len2_lengths;  // always 2; kept for uniform replay
  std::vector<uint32_t> len2_nodes;
  std::vector<uint32_t> dfs_lengths;
  std::vector<uint32_t> dfs_nodes;
  /// Cleared when a deadline/cancel interruption truncated the stream:
  /// the stored cycles are then a *prefix* of what the chunk would have
  /// produced, and the merge must stop after replaying them so the
  /// overall emission stays a prefix of the sequential order.  (Budget-
  /// capped chunks keep these set — their tails are past the
  /// `max_cycles` truncation point and unreachable in the merge.)
  bool len2_complete = true;
  bool dfs_complete = true;

  size_t num_len2() const { return len2_lengths.size(); }
};

/// Degree-balanced [begin, end) start ranges.  Weight of a start ~ its
/// degree (drives both the length-2 row scan and the DFS fan-out); more
/// chunks than threads so the atomic-cursor steal loop can rebalance
/// skewed high-degree chunks.
std::vector<std::pair<uint32_t, uint32_t>> BuildChunks(
    const UndirectedView& view, uint32_t threads, uint32_t max_starts) {
  const uint32_t n = view.num_nodes();
  uint64_t total_weight = 0;
  for (uint32_t s = 0; s < n; ++s) total_weight += 1 + view.Degree(s);
  const uint64_t target = std::max<uint64_t>(
      1, total_weight / (static_cast<uint64_t>(threads) * 8));

  std::vector<std::pair<uint32_t, uint32_t>> chunks;
  uint32_t begin = 0;
  uint64_t weight = 0;
  for (uint32_t s = 0; s < n; ++s) {
    weight += 1 + view.Degree(s);
    const uint32_t count = s + 1 - begin;
    if (weight >= target || (max_starts != 0 && count >= max_starts)) {
      chunks.emplace_back(begin, s + 1);
      begin = s + 1;
      weight = 0;
    }
  }
  if (begin < n) chunks.emplace_back(begin, n);
  return chunks;
}

/// Tracks which prefix of the chunk sequence is fully enumerated and how
/// many *first-stream* cycles it produced (the length-2 stream when one
/// exists, else the DFS stream — whichever merges first).  Used as the
/// shared `max_cycles` budget: once the *completed prefix* alone holds
/// `max_cycles` first-stream cycles, every not-yet-started chunk's
/// entire output falls past the truncation point — chunks are claimed in
/// ascending order, so any chunk a worker is about to claim can be
/// skipped outright.  Conservative (in-flight chunks keep running), but
/// sound: the merge step still truncates at exactly `max_cycles`.
struct PrefixBudget {
  common::Mutex mu;
  std::vector<uint8_t> done WQE_GUARDED_BY(mu);
  size_t next_prefix WQE_GUARDED_BY(mu) = 0;
  bool count_len2;  ///< which stream merges first; immutable after ctor
  std::atomic<size_t> prefix_count{0};

  PrefixBudget(size_t num_chunks, bool want_len2)
      : done(num_chunks, 0), count_len2(want_len2) {}

  void MarkDone(size_t chunk, const std::vector<ChunkBuffer>& buffers) {
    common::MutexLock lock(mu);
    done[chunk] = 1;
    size_t count = prefix_count.load(std::memory_order_relaxed);
    while (next_prefix < done.size() && done[next_prefix]) {
      const ChunkBuffer& b = buffers[next_prefix];
      count += count_len2 ? b.num_len2() : b.dfs_lengths.size();
      ++next_prefix;
    }
    prefix_count.store(count, std::memory_order_release);
  }

  bool Exhausted(size_t max_cycles) const {
    return max_cycles != 0 &&
           prefix_count.load(std::memory_order_acquire) >= max_cycles;
  }
};

/// Appends `path` to `lengths`/`nodes`, honoring the per-chunk cap: one
/// chunk never needs to contribute more than `max_cycles` cycles to
/// either merged stream, because the final output holds at most that many
/// in total.  Returns false once the cap is hit (stops that phase's
/// enumeration for the chunk).
bool AppendCapped(const std::vector<uint32_t>& path, size_t max_cycles,
                  std::vector<uint32_t>* lengths,
                  std::vector<uint32_t>* nodes) {
  lengths->push_back(static_cast<uint32_t>(path.size()));
  nodes->insert(nodes->end(), path.begin(), path.end());
  return max_cycles == 0 || lengths->size() < max_cycles;
}

}  // namespace

size_t CycleEnumerator::SequentialVisit(const CycleEnumerationOptions& options,
                                        const CycleVisitor& visitor) const {
  const uint32_t n = view_->num_nodes();
  const RunFilters filters(*view_, options);
  DfsContext ctx;
  ctx.Init(*view_, options, filters);
  size_t emitted = 0;
  ctx.sink = [&](const std::vector<uint32_t>& path) {
    ++emitted;
    if (!visitor(path)) return false;
    return options.max_cycles == 0 || emitted < options.max_cycles;
  };

  if (options.min_length <= 2 && options.max_length >= 2) {
    for (uint32_t u = 0; u < n && !ctx.aborted; ++u) {
      if (ctx.CheckInterrupt()) break;
      if (ctx.Alive(u)) ctx.Length2ForStart(u);
    }
  }
  if (options.max_length >= 3 && !ctx.interrupted) {
    for (uint32_t s = 0; s < n && !ctx.aborted; ++s) {
      if (ctx.CheckInterrupt()) break;
      if (ctx.Alive(s)) ctx.DfsForStart(s);
    }
  }
  return emitted;
}

size_t CycleEnumerator::ParallelVisit(const CycleEnumerationOptions& options,
                                      const CycleVisitor& visitor) const {
  const uint32_t threads =
      serve::EffectiveParallelism(options.num_threads, options.pool);
  const uint32_t n = view_->num_nodes();
  if (threads <= 1 || n < 2) return SequentialVisit(options, visitor);

  std::vector<std::pair<uint32_t, uint32_t>> chunks =
      BuildChunks(*view_, threads, options.parallel_chunk_starts);
  if (chunks.size() <= 1) return SequentialVisit(options, visitor);

  // One shared prune for all workers (read-only after this point).
  const RunFilters filters(*view_, options);
  const bool want_len2 = options.min_length <= 2 && options.max_length >= 2;
  const bool want_dfs = options.max_length >= 3;

  std::vector<ChunkBuffer> buffers(chunks.size());
  std::atomic<size_t> cursor{0};
  PrefixBudget budget(chunks.size(), want_len2);

  auto worker = [&] {
    DfsContext ctx;
    ctx.Init(*view_, options, filters);
    for (;;) {
      const size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks.size()) return;
      ChunkBuffer& out = buffers[c];
      WQE_FAULT_DELAY("graph.enumeration_chunk");
      // Coarse cooperative check per chunk claim: an interrupted worker
      // keeps draining the cursor, marking each untouched chunk
      // incomplete so the merge stops at the truncation point.
      if (ctx.CheckInterruptNow()) {
        out.len2_complete = false;
        out.dfs_complete = false;
        budget.MarkDone(c, buffers);
        continue;
      }
      if (!budget.Exhausted(options.max_cycles)) {
        const auto [begin, end] = chunks[c];
        if (want_len2) {
          ctx.aborted = false;
          ctx.sink = [&](const std::vector<uint32_t>& path) {
            return AppendCapped(path, options.max_cycles, &out.len2_lengths,
                                &out.len2_nodes);
          };
          for (uint32_t u = begin; u < end && !ctx.aborted; ++u) {
            if (ctx.CheckInterrupt()) break;
            if (ctx.Alive(u)) ctx.Length2ForStart(u);
          }
          if (ctx.interrupted) out.len2_complete = false;
        }
        if (ctx.interrupted) {
          // Whatever the DFS phase would have produced is lost to the
          // interruption; the chunk's DFS stream is (possibly empty and)
          // truncated.
          out.dfs_complete = false;
        } else if (want_dfs) {
          ctx.aborted = false;
          ctx.sink = [&](const std::vector<uint32_t>& path) {
            return AppendCapped(path, options.max_cycles, &out.dfs_lengths,
                                &out.dfs_nodes);
          };
          for (uint32_t s = begin; s < end && !ctx.aborted; ++s) {
            if (budget.Exhausted(options.max_cycles)) break;
            if (ctx.CheckInterrupt()) break;
            if (ctx.Alive(s)) ctx.DfsForStart(s);
          }
          if (ctx.interrupted) out.dfs_complete = false;
        }
      }
      budget.MarkDone(c, buffers);
    }
  };

  // The calling thread enumerates too; extra workers come from the
  // caller's pool or a transient one (EffectiveParallelism has already
  // guaranteed this thread is not a pool worker, so blocking on the
  // join cannot deadlock the pool).
  serve::RunParallel(options.pool,
                     std::min<size_t>(threads - 1, chunks.size() - 1), worker);

  // Deterministic merge + replay: all length-2 streams in chunk (= start)
  // order, then all DFS streams — exactly the sequential emission order —
  // with the visitor/max_cycles contract applied on this thread.
  obs::Span merge_span("merge");
  size_t emitted = 0;
  std::vector<uint32_t> scratch;
  auto feed = [&](const std::vector<uint32_t>& lengths,
                  const std::vector<uint32_t>& nodes) {
    size_t offset = 0;
    for (uint32_t len : lengths) {
      scratch.assign(nodes.begin() + static_cast<ptrdiff_t>(offset),
                     nodes.begin() + static_cast<ptrdiff_t>(offset + len));
      offset += len;
      ++emitted;
      if (!visitor(scratch)) return false;
      if (options.max_cycles != 0 && emitted >= options.max_cycles) {
        return false;
      }
    }
    return true;
  };
  // A chunk whose stream was truncated by a deadline/cancel interruption
  // still holds a *prefix* of its sequential output; replaying it and
  // then stopping keeps the overall emission a prefix of the sequential
  // order (the abort-prefix identity guarantee).
  for (const ChunkBuffer& b : buffers) {
    if (!feed(b.len2_lengths, b.len2_nodes)) return emitted;
    if (!b.len2_complete) return emitted;
  }
  for (const ChunkBuffer& b : buffers) {
    if (!feed(b.dfs_lengths, b.dfs_nodes)) return emitted;
    if (!b.dfs_complete) return emitted;
  }
  return emitted;
}

namespace {

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
  if (serve::EffectiveParallelism(options.num_threads, options.pool) > 1) {
    return ParallelVisit(options, visitor);
  }
  return SequentialVisit(options, visitor);
}

std::vector<Cycle> CycleEnumerator::Enumerate(
    const CycleEnumerationOptions& options) const {
  std::vector<Cycle> out;
  Visit(options, CollectInto(*view_, &out));
  return out;
}

std::vector<Cycle> CycleEnumerator::ParallelEnumerate(
    const CycleEnumerationOptions& options) const {
  std::vector<Cycle> out;
  ParallelVisit(options, CollectInto(*view_, &out));
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
