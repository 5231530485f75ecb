#pragma once

/// \file probe.h
/// \brief Per-layer timing from outside the program.
///
/// After a traced stream, the probe calls each layer's public entry point
/// on every distinct request of the workload, each call under a span
/// parented to that request's first root span:
///
///   linking.link      EntityLinker::LinkToArticles
///   wiki.ball         KnowledgeBase::Neighborhood + UndirectedView slice
///   graph.prune       graph::PruneBall
///   graph.dfs         CycleEnumerator::Visit with a no-op visitor (Visit
///                     prunes first; its self time subtracts graph.prune)
///   graph.scoring     ComputeCycleMetrics + CycleExpander::AcceptsCycle
///                     over the request's cycles
///   expansion.expand  Expander::Expand of Engine::BuildExpander("cycle")
///   ir.search         SearchEngine::Search on the expanded query
///   serve.cache_get   ExpansionCache::Get (plus a hit's copy-out) on a
///                     benchmark-owned cache replaying the stream's keys,
///                     publishes and fresh servers
///
/// Requests are revisited in passes until every timed layer has at least
/// `min_samples` samples; at `kMinProbeSamples` its p99 has ten samples
/// beyond it.  Work counts cover exactly one pass, so they repeat for a
/// given seed.

#include <cstdint>
#include <vector>

#include "api/engine.h"
#include "client.h"
#include "inputs.h"
#include "trace.h"

namespace servebench {

inline constexpr size_t kMinProbeSamples = 1000;

struct ProbeResult {
  /// Timing samples in ms, one per call (cache_get in µs, one per
  /// replayed request).  dfs and expand_self are self times.
  std::vector<double> link_ms, ball_ms, prune_ms, dfs_ms, scoring_ms,
      expand_ms, expand_self_ms, search_ms, cache_get_us;
  /// Work over one pass of the distinct requests.
  uint64_t ball_nodes = 0;
  uint64_t prune_survivors = 0;
  uint64_t cycles_visited = 0;
  uint64_t cycles_accepted = 0;
  /// The replay's outcome per stream request: whether it missed.
  std::vector<bool> replay_miss;
  /// Per topic (indexed by topic; 0 for topics not probed): the median
  /// cost of expansion and of retrieval.
  std::vector<double> expand_cost_ms;
  std::vector<double> search_cost_ms;
};

/// \brief Probes every layer for each of `distinct` on the engine's
/// current snapshot, and replays `traced`'s keys through a private cache.
/// A topic's probe spans are parented to the root span of its first
/// request in `traced`.
wqe::Result<ProbeResult> ProbeLayers(const wqe::api::Engine& engine,
                                     const Inputs& inputs,
                                     const std::vector<uint32_t>& distinct,
                                     const StreamResult& traced,
                                     size_t min_samples, SpanLog* spans);

}  // namespace servebench
