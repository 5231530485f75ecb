#include "graph/ball_prune.h"

#include <algorithm>
#include <bit>

#include "common/deadline.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wqe::graph {

namespace {

obs::Histogram* PruneMsHistogram() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "wqe.graph.prune_ms");
  return histogram;
}

obs::Histogram* SurvivorFractionHistogram() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "wqe.graph.prune_survivor_fraction");
  return histogram;
}

obs::Histogram* SurvivorsHistogram() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "wqe.graph.prune_survivors");
  return histogram;
}

void RecordSurvivors(const BallPruneStats& stats) {
  SurvivorFractionHistogram()->Record(stats.survivor_fraction());
  SurvivorsHistogram()->Record(static_cast<double>(stats.num_alive));
}

inline void ClearBit(std::vector<uint64_t>* bits, uint32_t i) {
  (*bits)[i >> 6] &= ~(uint64_t{1} << (i & 63));
}

inline void SetBit(std::vector<uint64_t>* bits, uint32_t i) {
  (*bits)[i >> 6] |= uint64_t{1} << (i & 63);
}

}  // namespace

BallPruneStats PruneBall(const UndirectedView& view,
                         const std::vector<NodeId>& seeds,
                         uint32_t max_cycle_length,
                         std::vector<uint64_t>* alive,
                         std::vector<uint32_t>* seed_distance) {
  obs::Span span("pruning", PruneMsHistogram());
  const uint32_t n = view.num_nodes();
  BallPruneStats stats;
  stats.num_nodes = n;
  if (seed_distance != nullptr) seed_distance->clear();

  alive->assign((n + 63) / 64, ~uint64_t{0});
  if ((n & 63) != 0 && !alive->empty()) {
    alive->back() = (uint64_t{1} << (n & 63)) - 1;
  }
  if (n == 0) {
    RecordSurvivors(stats);
    return stats;
  }

  // Effective cycle-degree per node: Σ min(multiplicity, 2) over alive
  // neighbors.  A parallel-edge pair is a length-2 cycle, so a
  // multiplicity-m edge contributes at most two cycle-usable slots — this
  // is the multigraph generalization of the 2-core, and any node of any
  // cycle keeps effective degree >= 2 within the cycle itself.
  std::vector<uint32_t> deg(n, 0);
  std::vector<uint32_t> worklist;
  for (uint32_t u = 0; u < n; ++u) {
    uint32_t d = 0;
    for (uint32_t m : view.Multiplicities(u)) d += std::min<uint32_t>(m, 2);
    deg[u] = d;
    if (d < 2) worklist.push_back(u);
  }

  // Kills every worklist node (already-dead entries are skipped, so
  // duplicate pushes are harmless), propagating degree loss to alive
  // neighbors and cascading the peel until no sub-2 node remains.
  auto kill_cascade = [&](std::vector<uint32_t>* wl) {
    while (!wl->empty()) {
      const uint32_t u = wl->back();
      wl->pop_back();
      if (!BallPruneAlive(alive->data(), u)) continue;
      ClearBit(alive, u);
      std::span<const uint32_t> neighbors = view.Neighbors(u);
      std::span<const uint32_t> mults = view.Multiplicities(u);
      for (size_t i = 0; i < neighbors.size(); ++i) {
        const uint32_t v = neighbors[i];
        if (!BallPruneAlive(alive->data(), v)) continue;
        const uint32_t loss = std::min<uint32_t>(mults[i], 2);
        const bool was_ok = deg[v] >= 2;
        deg[v] -= std::min(loss, deg[v]);
        if (was_ok && deg[v] < 2) wl->push_back(v);
      }
    }
  };
  kill_cascade(&worklist);

  // Distance-to-query filter, iterated with re-peeling to a fixed point.
  // Only alive nodes relay the BFS: a dead node cannot sit on a
  // qualifying cycle, so a cycle's own in-cycle path — which is what
  // bounds every cycle node to distance ⌊L/2⌋ of the seed — consists of
  // alive nodes and is never cut short by the restriction.  Each kill
  // can lengthen surviving nodes' distances and drop degrees, so BFS and
  // peel alternate until a full BFS round kills nothing.  A round is
  // never cut short, so `seed_distance` holds one whole round's levels.
  // If an interruption skips the later rounds, the last completed one's
  // distances stay lower bounds: it relayed through a superset of the
  // final alive nodes.
  if (!seeds.empty()) {
    std::vector<uint32_t> seed_locals;
    for (NodeId g : seeds) {
      const uint32_t local = view.ToLocal(g);
      if (local != UINT32_MAX) seed_locals.push_back(local);
    }
    const uint32_t depth = max_cycle_length / 2;
    std::vector<uint64_t> visited(alive->size());
    std::vector<uint32_t> frontier;
    std::vector<uint32_t> next;
    for (;;) {
      // Cooperative deadline check per BFS round: stopping early
      // leaves `alive` a superset of the exact fixed point, which is
      // still sound (pruning only ever removes provably cycle-free
      // nodes) — the enumerator just does a little more work, and the
      // request's own cooperative checks surface the interruption.
      if (common::CurrentDeadline().expired()) break;
      ++stats.rounds;
      std::fill(visited.begin(), visited.end(), 0);
      if (seed_distance != nullptr) seed_distance->assign(n, UINT32_MAX);
      frontier.clear();
      for (uint32_t s : seed_locals) {
        if (BallPruneAlive(alive->data(), s) &&
            !BallPruneAlive(visited.data(), s)) {
          SetBit(&visited, s);
          frontier.push_back(s);
        }
      }
      for (uint32_t d = 0; !frontier.empty(); ++d) {
        if (seed_distance != nullptr) {
          for (uint32_t u : frontier) (*seed_distance)[u] = d;
        }
        if (d == depth) break;
        next.clear();
        for (uint32_t u : frontier) {
          for (uint32_t v : view.Neighbors(u)) {
            if (BallPruneAlive(alive->data(), v) &&
                !BallPruneAlive(visited.data(), v)) {
              SetBit(&visited, v);
              next.push_back(v);
            }
          }
        }
        frontier.swap(next);
      }
      worklist.clear();
      for (size_t w = 0; w < alive->size(); ++w) {
        uint64_t dead = (*alive)[w] & ~visited[w];
        while (dead != 0) {
          worklist.push_back(static_cast<uint32_t>(
              w * 64 + static_cast<size_t>(std::countr_zero(dead))));
          dead &= dead - 1;
        }
      }
      if (worklist.empty()) break;
      kill_cascade(&worklist);
    }
  }

  uint32_t num_alive = 0;
  for (uint64_t word : *alive) {
    num_alive += static_cast<uint32_t>(std::popcount(word));
  }
  stats.num_alive = num_alive;
  RecordSurvivors(stats);
  return stats;
}

}  // namespace wqe::graph
