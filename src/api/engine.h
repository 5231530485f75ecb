#pragma once

/// \file engine.h
/// \brief `api::Engine`: the single serving-style entry point.
///
/// §4 of the paper proposes embedding dense-cycle expansion in "real query
/// expansion systems".  The Engine is that system boundary: it owns the
/// knowledge base, the entity linker, the retrieval engine and the
/// `ExpanderRegistry` of built-in strategies, and exposes a
/// request/response API —
///
///   - `Query(request)`    keywords → expansion features + INDRI query →
///     ranked documents, in one call,
///   - `QueryBatch`        the same per-request path looped over every
///     request on one pinned graph epoch, failing atomically,
///
/// both returning `Result<T>`.  Strategy selection is by registry name
/// with per-call `ExpanderOverrides` — callers never instantiate concrete
/// expander classes.  The registry is a fixed table and the strategies'
/// base options are fixed at `Build`, so serving threads read both
/// without a lock.  The engine runs the paper's one configuration: the
/// analyzer stops and stems (text/analyzer.h), the linker's window and
/// synonym search are fixed (linking/entity_linker.h), Dirichlet μ is
/// `ir::kDirichletMu`, and a request that names no strategy runs
/// "cycle".  A request's one budget is its deadline.  Benches, examples
/// and tests go through this facade (see `api::Testbed` for the
/// synthetic-experiment builder).
///
/// Hot republish: the KB and the linker built over it live together in a
/// `GraphSnapshot`, held as a `shared_ptr<const ...>` behind a tiny
/// mutex (pinning is lock/copy/unlock — microseconds against the
/// millisecond-scale expansions it protects).  `PublishSnapshot` swaps
/// in a freshly built snapshot (e.g. one loaded from disk, see
/// snapshot/reader.h) while serving continues: every request pins the
/// snapshot it started on via a `shared_ptr` copy and finishes there;
/// requests arriving after the swap see the new one.  The old snapshot
/// is destroyed when its last pin drops — epoch-style retirement that
/// never blocks a request: an in-flight request that drains last tears
/// it down on its own thread, and otherwise the publisher does, after
/// releasing the snapshot mutex, so no reader waits on a teardown.  A
/// snapshot-loaded KB serves its arrays and names from the mapping, so
/// its teardown is one unmap and a few frees.  Each snapshot
/// carries a monotonically increasing `generation`, which the serve
/// layer's `ExpansionCache` stamps into entries so a republish implicitly
/// invalidates stale cached expansions (see serve/expansion_cache.h).

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/expander_registry.h"
#include "common/mutex.h"
#include "common/result.h"
#include "ir/search_engine.h"
#include "linking/entity_linker.h"
#include "obs/metrics.h"
#include "wiki/knowledge_base.h"

namespace wqe::api {

/// \brief Facade configuration.  The knowledge base itself is passed to
/// `Engine::Build` (it is data, not an option).
struct EngineOptions {
  /// Result count when a query request asks for 0.
  size_t default_top_k = 15;
};

/// \brief One end-to-end query request (expand + retrieve).
struct QueryRequest {
  std::string keywords;
  /// Registry name ("cycle", "direct-link", ...); empty → "cycle".
  std::string expander;
  ExpanderOverrides overrides;
  size_t top_k = 0;  ///< 0 → EngineOptions::default_top_k
  /// Request budget in milliseconds; 0 (the default) means no deadline.
  /// Execution knobs like this are deliberately *not* `ExpanderOverrides`
  /// fields: they must never split serving-cache keys (the result is the
  /// same work, just bounded).  Combined with any ambient deadline — the
  /// tighter one wins.  Expired budgets surface as
  /// `Status::DeadlineExceeded`.
  double deadline_ms = 0.0;
};

/// \brief Expansion outcome.
struct ExpandResponse {
  std::string expander;  ///< resolved canonical strategy name
  std::vector<graph::NodeId> query_articles;    ///< L(k)
  std::vector<graph::NodeId> feature_articles;  ///< selected features
  std::vector<std::string> titles;              ///< issued phrase titles
  ir::QueryNode query;                          ///< #combine of phrases
  /// `query` resolved to term ids against the engine's index, once, by
  /// `ExpandWith`.  It rides in the serving cache, so a hit retrieves
  /// without re-analyzing `query`.
  ir::PreparedQuery prepared;
};

/// \brief Query outcome: the expansion plus the ranked documents.  Stage
/// timings are the `expansion`, `search` and `request` spans' histograms
/// (`wqe.engine.expand_ms`, `wqe.engine.search_ms`,
/// `wqe.server.request_latency_ms`), not response fields.
struct QueryResponse {
  ExpandResponse expansion;
  std::vector<ir::ScoredDoc> docs;
};

/// \brief Snapshot of the engine's cumulative work counters (tests assert
/// through `expand_calls` that a serving-cache hit did not expand).
/// Returned by value from `Engine::stats()`; the live state is
/// `obs::Counter` instruments registered as `wqe.engine.*{engine=N}` in
/// the global metrics registry, where N is a per-engine instance id so
/// absolute counts stay meaningful when several engines coexist in one
/// process.  Cache outcomes are the cache's own counters
/// (`serve::ExpansionCache::stats()`).
struct EngineStats {
  size_t expand_calls = 0;  ///< expansions computed (batch items included)
  size_t searches = 0;      ///< retrieval invocations
};

/// \brief One published graph epoch: the frozen KB plus the linker built
/// over it.  Heap-allocated and immutable once published; shared by every
/// request that pinned it.  `generation` increases by one per publish
/// (the initial `Engine::Build` snapshot is generation 1).
struct GraphSnapshot {
  wiki::KnowledgeBase kb;
  std::unique_ptr<linking::EntityLinker> linker;
  uint64_t generation = 0;
};

/// \brief The facade.  Immutable topology after `Build` (documents may be
/// added until `FinalizeIndex`); all serving calls are const.  The graph
/// snapshot is replaceable at runtime via `PublishSnapshot`.
class Engine {
 public:
  /// \brief Takes ownership of `kb`, freezes it into its immutable
  /// `graph::CsrGraph` snapshot (shared by every expander and worker
  /// thread — see graph/csr.h), builds the linker, the retrieval engine
  /// and the built-in registry, and validates the options.
  static Result<std::unique_ptr<Engine>> Build(wiki::KnowledgeBase kb,
                                               EngineOptions options = {});

  /// \name Corpus
  /// @{
  /// \brief Adds a document to the retrieval index (before FinalizeIndex).
  Result<ir::DocId> AddDocument(std::string_view name, std::string_view text);
  /// \brief Freezes the corpus and builds the index; required before
  /// any expansion or query.
  Status FinalizeIndex();
  /// @}

  /// \name Serving
  /// @{
  Result<QueryResponse> Query(const QueryRequest& request) const;

  /// \brief Queries every request, in order, on one pinned snapshot.
  /// Rankings are identical to issuing the requests through `Query` one
  /// by one.  Fails atomically: the first bad request aborts the batch,
  /// named as "QueryBatch request #i".
  Result<std::vector<QueryResponse>> QueryBatch(
      const std::vector<QueryRequest>& requests) const;
  /// @}

  /// \name Serving hooks
  /// Low-level building blocks for the `serve::Server` concurrency layer:
  /// they expose the expand/search halves of `Query` separately so a
  /// caching server can skip the expansion half on a hit, while the
  /// stats semantics stay inside the engine.
  /// @{
  /// \brief A request's canonical strategy name: empty resolves to
  /// "cycle", aliases to their targets.  Unknown names pass through
  /// unchanged (they fail later, in `BuildExpander`, with a proper error).
  std::string ResolveStrategy(std::string_view expander) const;

  /// \brief Constructs one expander instance for `(strategy, overrides)`
  /// against `snapshot`.  The instance only borrows the snapshot's KB and
  /// linker, so the caller keeps the snapshot pinned while it expands —
  /// the serve layer pins one per request (`CurrentSnapshot`) and builds
  /// against exactly that epoch, so a concurrent `PublishSnapshot` never
  /// mixes graph versions inside one request.
  Result<std::unique_ptr<expansion::Expander>> BuildExpander(
      const GraphSnapshot& snapshot, std::string_view expander,
      const ExpanderOverrides& overrides) const;

  /// \brief Expands `keywords` with a caller-built expander instance;
  /// `resolved_name` is echoed into the response.  Fails with
  /// InvalidArgument before expanding when the index is not finalized;
  /// otherwise also prepares the response's query against the index,
  /// under a `query-prepare` span of its own.
  Result<ExpandResponse> ExpandWith(const expansion::Expander& expander,
                                    std::string_view resolved_name,
                                    std::string_view keywords) const;

  /// \brief Completes a query from an already-computed expansion (a
  /// serving-cache hit): retrieval only, no linking, feature selection or
  /// query analysis.  `expansion.prepared` must come from this engine's
  /// `ExpandWith`; one prepared by another engine fails with
  /// InvalidArgument, and its term ids are never read.  `top_k == 0`
  /// uses the engine default.
  Result<QueryResponse> QueryWithExpansion(ExpandResponse expansion,
                                           size_t top_k) const;

  /// \brief Pins the current graph epoch.  The returned pointer keeps the
  /// snapshot (KB, linker, any mmap behind the KB's CSR) alive until the
  /// caller drops it, so an in-flight request is immune to republishes.
  /// A brief lock/copy/unlock rather than `std::atomic<shared_ptr>`:
  /// libstdc++'s `_Sp_atomic::load` unlocks its internal spinlock with a
  /// relaxed RMW, so TSan (correctly, per the formal model) flags a race
  /// against a concurrent store — the annotated mutex gives the same
  /// epoch semantics with a contract the sanitizer can verify.
  std::shared_ptr<const GraphSnapshot> CurrentSnapshot() const {
    common::MutexLock lock(snapshot_mu_);
    return snapshot_;
  }

  /// \brief Atomically replaces the graph snapshot with `kb` (frozen here
  /// if the caller has not done so): builds the linker over it, then,
  /// under the snapshot mutex, stamps it with the replaced snapshot's
  /// generation + 1 and publishes it.  The replaced snapshot is dropped
  /// after the mutex is released.  In-flight requests finish on the
  /// snapshot they pinned; new requests see the new one.  The retrieval
  /// index, registry and options are untouched — this swaps the *graph*,
  /// not the engine.  Thread-safe against serving calls; concurrent
  /// publishers build in parallel and swap in the order their builds
  /// finish (the last swap wins), and the published generation only ever
  /// grows.  Records a `snapshot-publish` span and sets the
  /// `wqe.server.snapshot_generation` gauge.
  Status PublishSnapshot(wiki::KnowledgeBase kb);

  /// \brief Generation of the currently published snapshot (1 after
  /// `Build`, +1 per `PublishSnapshot`).
  uint64_t snapshot_generation() const { return CurrentSnapshot()->generation; }
  /// @}

  /// \name Components
  /// @{
  /// \brief The built-in strategies (a fixed table).
  const ExpanderRegistry& registry() const { return registry_; }
  /// \brief Convenience views of the *current* snapshot's KB/linker.
  /// The references stay valid while that snapshot is published (or
  /// otherwise pinned) — code that may overlap a `PublishSnapshot` must
  /// hold a `CurrentSnapshot()` pin and read through it instead.
  const wiki::KnowledgeBase& kb() const { return CurrentSnapshot()->kb; }
  const linking::EntityLinker& linker() const {
    return *CurrentSnapshot()->linker;
  }
  const ir::SearchEngine& search_engine() const { return *search_; }
  const EngineOptions& options() const { return options_; }
  /// \brief Coherent-enough copy of the cumulative counters (relaxed
  /// reads of the backing registry instruments; exact once writers
  /// quiesce, which is when tests and benches read it).
  EngineStats stats() const;
  /// @}

 private:
  Engine() = default;

  /// The one query path, on an already pinned `snapshot`: installs the
  /// request's deadline, builds its expander, expands and retrieves.
  /// `Query` pins and calls it; `QueryBatch` pins once and loops over it.
  Result<QueryResponse> QueryPinned(const GraphSnapshot& snapshot,
                                    const QueryRequest& request) const;

  /// Freezes `kb` and builds the linker over it (shared by Build and
  /// PublishSnapshot).  The generation is left 0: it is stamped under
  /// `snapshot_mu_` when the snapshot is swapped in.
  std::shared_ptr<GraphSnapshot> MakeSnapshot(wiki::KnowledgeBase kb) const;

  /// The registry instruments behind `stats()`.  Resolved once in
  /// `Build` (global-registry pointers are stable for the process);
  /// recording through them is wait-free, so the const serving calls
  /// stay safe under concurrent use — same contract the old atomic
  /// struct gave, now with the counts exported alongside every other
  /// metric.
  struct Counters {
    obs::Counter* expand_calls = nullptr;
    obs::Counter* searches = nullptr;
    obs::Gauge* snapshot_generation = nullptr;
  };

  EngineOptions options_;
  /// The published graph epoch.  Readers pin by copying the pointer
  /// under `snapshot_mu_` (`CurrentSnapshot`); `PublishSnapshot`
  /// replaces it under the same lock and drops the old pointer after
  /// unlocking.  Retirement is reference-counted: the old epoch dies when
  /// its last pin drops, never under this lock.
  mutable common::Mutex snapshot_mu_;
  std::shared_ptr<const GraphSnapshot> snapshot_
      WQE_GUARDED_BY(snapshot_mu_);
  std::unique_ptr<ir::SearchEngine> search_;
  ExpanderRegistry registry_;
  Counters counters_;
};

}  // namespace wqe::api
