#pragma once

/// \file engine.h
/// \brief `api::Engine`: the single serving-style entry point.
///
/// §4 of the paper proposes embedding dense-cycle expansion in "real query
/// expansion systems".  The Engine is that system boundary: it owns the
/// knowledge base, the entity linker, the retrieval engine and a pluggable
/// `ExpanderRegistry`, and exposes a request/response API —
///
///   - `Expand(request)`   keywords → expansion features + INDRI query,
///   - `Query(request)`    expand + retrieve in one call,
///   - `ExpandBatch` / `QueryBatch`   the same per-request path looped
///     over every request on one pinned graph epoch, failing atomically,
///
/// all returning `Result<T>`.  Strategy selection is by registry name with
/// per-call `ExpanderOverrides` — callers never instantiate concrete
/// expander classes.  Benches, examples and tests go through this facade
/// (see `api::Testbed` for the synthetic-experiment builder).
///
/// Hot republish: the KB and the linker built over it live together in a
/// `GraphSnapshot`, held as a `shared_ptr<const ...>` behind a tiny
/// mutex (pinning is lock/copy/unlock — microseconds against the
/// millisecond-scale expansions it protects).  `PublishSnapshot` swaps
/// in a freshly built snapshot (e.g. one loaded from disk, see
/// snapshot/reader.h) while serving continues: every request pins the
/// snapshot it started on via a `shared_ptr` copy and finishes there;
/// requests arriving after the swap see the new one.  The old snapshot
/// is destroyed when its last in-flight request drains —
/// epoch-style retirement that never blocks a request.  Each snapshot
/// carries a monotonically increasing `generation`, which the serve
/// layer's `ExpansionCache` stamps into entries so a republish implicitly
/// invalidates stale cached expansions (see serve/expansion_cache.h).

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/expander_registry.h"
#include "common/deadline.h"
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
  ir::SearchEngineOptions search;
  linking::EntityLinkerOptions linker;
  /// Base options of the built-in strategies; per-call overrides layer on
  /// top of these.
  StrategyDefaults strategies;
  /// Strategy used when a request names none.
  std::string default_expander = "cycle";
  /// Result count when a query request asks for 0.
  size_t default_top_k = 15;
};

/// \brief One expansion request.
struct ExpandRequest {
  std::string keywords;
  /// Registry name ("cycle", "direct-link", ...); empty → the engine's
  /// default strategy.
  std::string expander;
  ExpanderOverrides overrides;
  /// Request budget in milliseconds; 0 (the default) means no deadline.
  /// Execution knobs like this are deliberately *not* `ExpanderOverrides`
  /// fields: they must never split serving-cache keys (the result is the
  /// same work, just bounded).  Combined with any ambient deadline — the
  /// tighter one wins.  Expired budgets surface as
  /// `Status::DeadlineExceeded`.
  double deadline_ms = 0.0;
  /// Optional cooperative-cancellation token (`common::CancelSource` is
  /// kept by the caller).  Null by default.  Cancellation surfaces as
  /// `Status::Cancelled`.
  common::CancelToken cancel;
};

/// \brief One end-to-end query request (expand + retrieve).
struct QueryRequest {
  std::string keywords;
  std::string expander;  ///< as in ExpandRequest
  ExpanderOverrides overrides;
  size_t top_k = 0;  ///< 0 → EngineOptions::default_top_k
  double deadline_ms = 0.0;     ///< as in ExpandRequest
  common::CancelToken cancel;   ///< as in ExpandRequest
};

/// \brief Expansion outcome.
struct ExpandResponse {
  std::string expander;  ///< resolved canonical strategy name
  std::vector<graph::NodeId> query_articles;    ///< L(k)
  std::vector<graph::NodeId> feature_articles;  ///< selected features
  std::vector<std::string> titles;              ///< issued phrase titles
  ir::QueryNode query;                          ///< #combine of phrases
  /// `query` resolved to term ids against the engine's index, once, by
  /// `ExpandWith` (left unprepared before `FinalizeIndex`).  It rides in
  /// the serving cache, so a hit retrieves without re-analyzing `query`.
  ir::PreparedQuery prepared;
  double expand_ms = 0.0;  ///< expansion only, not query preparation
};

/// \brief Query outcome: the expansion plus the ranked documents.
struct QueryResponse {
  ExpandResponse expansion;
  std::vector<ir::ScoredDoc> docs;
  double search_ms = 0.0;
  double total_ms = 0.0;
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
  /// and the built-in registry, and validates the options (the default
  /// strategy must resolve).
  static Result<std::unique_ptr<Engine>> Build(wiki::KnowledgeBase kb,
                                               EngineOptions options = {});

  /// \name Corpus
  /// @{
  /// \brief Adds a document to the retrieval index (before FinalizeIndex).
  Result<ir::DocId> AddDocument(std::string_view name, std::string_view text);
  /// \brief Freezes the corpus and builds the index; required before
  /// Query/QueryBatch.
  Status FinalizeIndex();
  /// @}

  /// \name Serving
  /// @{
  Result<ExpandResponse> Expand(const ExpandRequest& request) const;
  Result<QueryResponse> Query(const QueryRequest& request) const;

  /// \brief Expands every request, in order, on one pinned snapshot.
  /// Fails atomically: the first bad request aborts the batch, named as
  /// "ExpandBatch request #i".
  Result<std::vector<ExpandResponse>> ExpandBatch(
      const std::vector<ExpandRequest>& requests) const;

  /// \brief Queries every request as ExpandBatch expands them.  Rankings
  /// are identical to issuing the requests through `Query` one by one.
  Result<std::vector<QueryResponse>> QueryBatch(
      const std::vector<QueryRequest>& requests) const;
  /// @}

  /// \name Serving hooks
  /// Low-level building blocks for the `serve::Server` concurrency layer:
  /// they expose the expand/search halves of `Query` separately so a
  /// caching server can skip the expansion half on a hit, while the
  /// stats semantics stay inside the engine.
  /// @{
  /// \brief A request's canonical strategy name: empty resolves to the
  /// engine default, aliases to their targets.  Unknown names pass through
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
  /// `resolved_name` is echoed into the response.  Once the index is
  /// finalized, also prepares the response's query against it, under a
  /// `query-prepare` span of its own.
  Result<ExpandResponse> ExpandWith(const expansion::Expander& expander,
                                    std::string_view resolved_name,
                                    std::string_view keywords) const;

  /// \brief Completes a query from an already-computed expansion (a
  /// serving-cache hit): retrieval only, no linking or feature selection,
  /// and no query analysis when `expansion.prepared` came from this
  /// engine's index.  An expansion prepared elsewhere (or not at all:
  /// made before `FinalizeIndex`, or by another engine) is re-prepared
  /// from `expansion.query`; foreign term ids are never read.
  /// `expansion.expand_ms` is left as recorded when the expansion was
  /// first computed.  `top_k == 0` uses the engine default.
  Result<QueryResponse> QueryWithExpansion(ExpandResponse expansion,
                                           size_t top_k) const;

  /// \brief Freezes the registry: after this, the non-const `registry()`
  /// accessor is a contract violation (asserted in debug builds).  Called
  /// by the `serve::Server` constructor — registering strategies while
  /// worker threads resolve names is unsupported.  Irreversible.
  ///
  /// Deliberately a one-way atomic flag, not a `common::Mutex`: the
  /// serving path (`ResolveStrategy` from every worker) reads the
  /// registry lock-free, which is only sound because mutation is
  /// impossible once the flag is set.  Clang's `-Wthread-safety` cannot
  /// model a phase transition, so this contract is enforced dynamically
  /// instead: `WQE_DCHECK(!registry_locked())` in the non-const
  /// `registry()` (death-tested in serve_test.cc) backs up the
  /// annotated-mutex discipline used everywhere else in the serve layer.
  void LockRegistry() const { registry_locked_.store(true); }
  bool registry_locked() const { return registry_locked_.load(); }

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
  /// if the caller has not done so): builds the linker over it, stamps
  /// the next generation, and publishes.  In-flight requests finish on
  /// the snapshot they pinned; new requests see the new one.  The
  /// retrieval index, registry and options are untouched — this swaps
  /// the *graph*, not the engine.  Thread-safe against serving calls;
  /// concurrent publishers serialize on the snapshot mutex (last one
  /// wins).  Records a `snapshot-publish` span and sets the
  /// `wqe.server.snapshot_generation` gauge.
  Status PublishSnapshot(wiki::KnowledgeBase kb);

  /// \brief Generation of the currently published snapshot (1 after
  /// `Build`, +1 per `PublishSnapshot`).
  uint64_t snapshot_generation() const { return CurrentSnapshot()->generation; }
  /// @}

  /// \name Components
  /// @{
  /// \brief Mutable registry access, for registering custom strategies
  /// during setup.  Unsupported once a `serve::Server` wraps this engine
  /// (see `LockRegistry`); debug builds abort on the violation.
  ExpanderRegistry& registry();
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

  /// The one request path, on an already pinned `snapshot`: installs the
  /// request's exec context, builds its expander and expands (then, for
  /// queries, retrieves).  The singles pin and call these; the batches
  /// pin once and loop over them.
  Result<ExpandResponse> ExpandPinned(const GraphSnapshot& snapshot,
                                      const ExpandRequest& request) const;
  Result<QueryResponse> QueryPinned(const GraphSnapshot& snapshot,
                                    const QueryRequest& request) const;

  /// Freezes `kb`, builds the linker over it and wraps both with
  /// `generation` (shared by Build and PublishSnapshot).
  std::shared_ptr<const GraphSnapshot> MakeSnapshot(wiki::KnowledgeBase kb,
                                                    uint64_t generation) const;

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
  /// replaces it under the same lock.  Retirement is reference-counted:
  /// the old epoch dies when its last pinning request drains.
  mutable common::Mutex snapshot_mu_;
  std::shared_ptr<const GraphSnapshot> snapshot_
      WQE_GUARDED_BY(snapshot_mu_);
  std::atomic<uint64_t> next_generation_{0};
  std::unique_ptr<ir::SearchEngine> search_;
  ExpanderRegistry registry_;
  Counters counters_;
  mutable std::atomic<bool> registry_locked_{false};
};

}  // namespace wqe::api
