#include "graph/cycles.h"

#include <algorithm>
#include <bit>

#include "common/deadline.h"
#include "common/macros.h"
#include "graph/ball_prune.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wqe::graph {

namespace {

/// How many DFS extensions / start visits pass between cooperative
/// deadline checks.  Large enough that the clock read is noise
/// against the enumeration work, small enough that an expired deadline
/// stops the run soon after.  An extension includes its fused last level
/// and the visitor calls it makes: on servebench's cold_miss balls
/// (4-vCPU host, Release, no-op visitor) 256 of them take about 9 µs at
/// the median and under 20 µs at p99.
constexpr int kDeadlineCheckInterval = 256;

/// Whole-enumeration latency, shared by every enumerator: this is the
/// kernel the serve stack's `enumeration` span bottoms out in.
obs::Histogram* EnumerationHistogram() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "wqe.graph.enumeration_latency_ms");
  return histogram;
}

/// The DFS's work volume: `Extend` calls per enumeration, one
/// observation per run.
obs::Histogram* ExtensionsHistogram() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "wqe.graph.dfs_extensions");
  return histogram;
}

/// Words of one bit row: one bit per local id, 64 per word.
uint32_t WordsFor(uint32_t n) { return (n + 63) / 64; }

bool HasBit(const uint64_t* bits, uint32_t i) {
  return ((bits[i >> 6] >> (i & 63)) & 1) != 0;
}

void SetBit(uint64_t* bits, uint32_t i) {
  bits[i >> 6] |= uint64_t{1} << (i & 63);
}

/// The bits of word `x >> 6` that stand for local ids above `x`.
uint64_t AboveInWord(uint32_t x) { return (~uint64_t{0} << (x & 63)) << 1; }

/// Read-only inputs of one run: the seed mask and what ball pruning
/// produced.
struct RunFilters {
  std::vector<uint64_t> seed_bits;  ///< by local id; empty = no seed filter
  std::vector<uint64_t> alive_bits;
  /// PruneBall's distance to the nearest seed by local id; empty when
  /// pruning is off, no seeds were given, or no BFS round completed.
  std::vector<uint32_t> seed_distance;
  bool pruned_any = false;

  /// Ball-pruning bitset by local id (graph/ball_prune.h); null when
  /// pruning is off or removed nothing.  Dead nodes lie on no qualifying
  /// cycle, so skipping them changes no emission and no emission order.
  const uint64_t* alive() const {
    return pruned_any ? alive_bits.data() : nullptr;
  }

  RunFilters(const UndirectedView& view,
             const CycleEnumerationOptions& options) {
    if (!options.seeds.empty()) {
      seed_bits.assign(WordsFor(view.num_nodes()), 0);
      for (NodeId g : options.seeds) {
        const uint32_t local = view.ToLocal(g);
        if (local != UINT32_MAX) SetBit(seed_bits.data(), local);
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
  /// By local id; null when no seeds were given (no filter).  A seed set
  /// with no member in the view leaves it all zero: nothing qualifies.
  const uint64_t* seed_bits = nullptr;
  const uint64_t* alive = nullptr;  ///< see RunFilters::alive()
  /// Distance to the nearest seed by local id (null = no cut).  Every
  /// node the DFS reaches is alive, so its entry is finite.
  const uint32_t* seed_distance = nullptr;
  uint32_t words = 0;  ///< per bit row
  /// Row u holds u's alive neighbours, `words` words from u * words;
  /// built by BuildRows.
  std::vector<uint64_t> rows;
  std::vector<uint64_t> on_path;
  std::vector<uint32_t> path;
  uint32_t path_seeds = 0;  ///< seeds among `path`
  size_t emitted = 0;       ///< cycles handed to the visitor
  size_t extensions = 0;    ///< Extend calls
  bool aborted = false;
  /// Whether the ambient deadline is finite; cached at construction so
  /// the (overwhelmingly common) no-deadline path costs one branch per
  /// check site.
  bool deadline_active = false;
  /// Starts at 1 so the very first check consults the clock: a request
  /// that is already over budget then deterministically emits nothing.
  int check_countdown = 1;

  DfsContext(const UndirectedView& v, const CycleEnumerationOptions& o,
             const RunFilters& filters, const CycleVisitor& visit)
      : view(&v),
        options(&o),
        visitor(&visit),
        seed_bits(o.seeds.empty() ? nullptr : filters.seed_bits.data()),
        alive(filters.alive()),
        seed_distance(filters.seed_distance.empty()
                          ? nullptr
                          : filters.seed_distance.data()),
        words(WordsFor(v.num_nodes())),
        on_path(words, 0),
        deadline_active(!common::CurrentDeadline().is_infinite()) {}

  /// Countdown-gated cooperative check: consults the clock every
  /// `kDeadlineCheckInterval` calls, and aborts the run once the ambient
  /// deadline has passed.
  bool Interrupted() {
    if (!deadline_active || --check_countdown > 0) return false;
    check_countdown = kDeadlineCheckInterval;
    aborted = common::CurrentDeadline().expired();
    return aborted;
  }

  bool Alive(uint32_t v) const {
    return alive == nullptr || BallPruneAlive(alive, v);
  }

  uint32_t IsSeed(uint32_t v) const {
    return seed_bits == nullptr ? 0 : HasBit(seed_bits, v);
  }

  const uint64_t* Row(uint32_t u) const {
    return rows.data() + static_cast<size_t>(u) * words;
  }

  /// Sets each alive node's row to its alive neighbours, so neither the
  /// extension loop nor the last level tests liveness again.  A dead
  /// node's row stays empty; the DFS never reaches one.
  void BuildRows() {
    rows.assign(static_cast<size_t>(view->num_nodes()) * words, 0);
    for (uint32_t u = 0; u < view->num_nodes(); ++u) {
      if (!Alive(u)) continue;
      uint64_t* row = rows.data() + static_cast<size_t>(u) * words;
      for (uint32_t v : view->Neighbors(u)) SetBit(row, v);
      if (alive != nullptr) {
        for (uint32_t w = 0; w < words; ++w) row[w] &= alive[w];
      }
    }
  }

  void Push(uint32_t v) {
    path.push_back(v);
    SetBit(on_path.data(), v);
    path_seeds += IsSeed(v);
  }

  void Pop() {
    const uint32_t v = path.back();
    path.pop_back();
    on_path[v >> 6] &= ~(uint64_t{1} << (v & 63));
    path_seeds -= IsSeed(v);
  }

  void Emit() {
    if (seed_bits != nullptr && path_seeds == 0) return;
    Deliver();
  }

  /// Hands `path`, known to pass the seed filter, to the visitor.
  void Deliver() {
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
  /// node is `s`).  Row s is the closing mask: only a neighbour of `s`
  /// can end such a cycle.
  void DfsForStart(uint32_t s) {
    Push(s);
    Extend(s, s);
    Pop();
  }

  /// Extends the path, whose last node is `u`; `start` is path[0].
  ///
  /// The candidates are row(u) ∧ ¬on_path ∧ above(start): the start is the
  /// path minimum, so nothing up to it can join.  They are taken lowest
  /// bit first, which is the row's ascending order.
  void Extend(uint32_t start, uint32_t u) {
    ++extensions;
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
    const uint64_t* closes = Row(start);
    // Close the cycle when we are back at the start with enough nodes.
    // The orientation constraint path[1] < path.back() ensures each cycle
    // is emitted in only one of its two traversal directions.
    if (len >= 3 && len >= options->min_length && path[1] < u &&
        HasBit(closes, u)) {
      Emit();
      if (aborted) return;
    }
    const uint64_t* row = Row(u);
    if (len + 1 == options->max_length) {
      EmitLastLevel(row, closes);
      return;
    }
    uint64_t above = AboveInWord(start);
    for (uint32_t w = start >> 6; w < words; ++w, above = ~uint64_t{0}) {
      uint64_t candidates = row[w] & ~on_path[w] & above;
      while (candidates != 0) {
        const uint32_t v =
            w * 64 + static_cast<uint32_t>(std::countr_zero(candidates));
        candidates &= candidates - 1;
        Push(v);
        Extend(start, v);
        Pop();
        if (aborted) return;
      }
    }
  }

  /// The fused last level: `path` holds max_length - 1 nodes, so a
  /// neighbour of its last node can only join as the final node of a
  /// cycle.  The candidates are row ∧ closes ∧ ¬on_path ∧ above(path[1])
  /// (the orientation rule), and only seeds when the path holds none, so
  /// each one is emitted in place, lowest bit first: the same cycles in
  /// the same order as one recursive call per neighbour.
  void EmitLastLevel(const uint64_t* row, const uint64_t* closes) {
    if (path.size() + 1 < options->min_length) return;
    const uint64_t* need_seed = path_seeds == 0 ? seed_bits : nullptr;
    const uint32_t after = path[1];
    uint64_t above = AboveInWord(after);
    for (uint32_t w = after >> 6; w < words; ++w, above = ~uint64_t{0}) {
      uint64_t candidates = row[w] & closes[w] & ~on_path[w] & above;
      if (need_seed != nullptr) candidates &= need_seed[w];
      while (candidates != 0) {
        path.push_back(w * 64 +
                       static_cast<uint32_t>(std::countr_zero(candidates)));
        candidates &= candidates - 1;
        Deliver();
        path.pop_back();
        if (aborted) return;
      }
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
  WQE_CHECK(n <= kMaxCycleViewNodes);
  const RunFilters filters(*view_, options);
  DfsContext ctx(*view_, options, filters, visitor);
  if (options.min_length <= 2 && options.max_length >= 2) {
    for (uint32_t u = 0; u < n && !ctx.aborted; ++u) {
      if (ctx.Interrupted()) break;
      if (ctx.Alive(u)) ctx.Length2ForStart(u);
    }
  }
  if (options.max_length >= 3 && !ctx.aborted) {
    ctx.BuildRows();
    for (uint32_t s = 0; s < n && !ctx.aborted; ++s) {
      if (ctx.Interrupted()) break;
      if (ctx.Alive(s)) ctx.DfsForStart(s);
    }
  }
  ExtensionsHistogram()->Record(static_cast<double>(ctx.extensions));
  return ctx.emitted;
}

std::vector<Cycle> CycleEnumerator::Enumerate(
    const CycleEnumerationOptions& options) const {
  std::vector<Cycle> out;
  Visit(options, CollectInto(*view_, &out));
  return out;
}

}  // namespace wqe::graph
