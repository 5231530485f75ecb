#pragma once

/// \file server.h
/// \brief The concurrent serving core: Engine + ThreadPool + ExpansionCache.
///
/// `api::Engine`'s serving calls are const and internally thread-safe, but
/// the facade itself is sequential: a batch runs on the caller's thread and
/// a repeated query re-runs linking and cycle enumeration from scratch.
/// `serve::Server` wraps an engine with the two serving-side pieces:
///
///   - `Submit` / `SubmitExpand` enqueue one request on the worker pool
///     and return a `std::future` for its `Result`;
///   - `QueryBatch` / `ExpandBatch` fan a batch across the pool and block
///     until every response is in, preserving input order and the
///     engine's fail-atomic error contract ("request #i" contexts);
///   - every expansion is served through a sharded LRU `ExpansionCache`
///     keyed by `(keywords, resolved strategy, overrides)`, so repeated
///     queries skip linking + enumeration entirely (hits/misses are the
///     cache's own counters, `cache()->stats()`).
///
/// Singles and batch items run one request path: admission, then on a
/// worker a cache lookup and, on a miss, the request's own expander
/// built and run against the pinned snapshot.
///
/// Rankings are bit-identical to sequential `Engine::Query` calls: scoring
/// is deterministic (ties break by DocId, see ir/ranker.h) and cached
/// expansions are pure functions of their key over the immutable KB.
///
/// All workers share the engine KB's one frozen `graph::CsrGraph`
/// snapshot (built once in `Engine::Build`, see graph/csr.h): a cache
/// *miss* slices that snapshot's precomputed flat undirected adjacency
/// for its query ball — it never re-materializes whole-graph adjacency or
/// touches the mutable builder, so cold-miss latency stays flat as
/// workers are added.
///
/// Hot republish: every request pins the engine's current `GraphSnapshot`
/// (`Engine::CurrentSnapshot`) once on its worker and serves entirely
/// from that epoch — expander construction, expansion, and the cache key
/// generation all use the pin, so `Engine::PublishSnapshot` racing a
/// request can never mix graph versions within it.  Cache entries are
/// stamped with the generation that computed them; entries from an older
/// epoch are dropped on lookup (see expansion_cache.h), so a republish
/// invalidates the cache without a sweep.  Batches pin once for the whole
/// batch, keeping their responses mutually consistent.
///
/// The wrapped engine's registry is frozen at construction
/// (`Engine::LockRegistry`): registering strategies while workers resolve
/// names is unsupported.
///
/// One pool per server, and one level of parallelism: each request runs
/// on one worker, start to finish, and never fans out again.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/deadline.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/expansion_cache.h"
#include "serve/thread_pool.h"

namespace wqe::serve {

/// \brief Serving configuration.
struct ServerOptions {
  /// Worker threads; 0 means one per hardware thread.
  size_t num_threads = 0;
  /// Serve expansions through the cache (disable for e.g. A/B latency
  /// measurements of the uncached path).
  bool enable_cache = true;
  ExpansionCacheOptions cache;
  /// Where this server registers its instruments and appends its spans;
  /// null uses the process-global registry.  Must outlive the server.
  /// Propagated into `cache.registry` when that is unset, so pointing a
  /// server at a private registry isolates the whole stack — how the
  /// serving bench gets clean per-configuration percentiles.  The
  /// pool-level `wqe.serve.queue_wait_ms` histogram is the one exception:
  /// pools are registry-agnostic, so queue waits always aggregate
  /// globally (their spans still land in this server's trace log via the
  /// submitter's context).
  obs::MetricsRegistry* registry = nullptr;
  /// Default per-request budget in milliseconds, applied to every
  /// request that does not carry its own `deadline_ms`; 0 (the default)
  /// means no deadline.  The deadline starts at submission (queue wait
  /// spends budget) and is enforced cooperatively inside the kernels —
  /// an over-budget request fails with `Status::DeadlineExceeded`, never
  /// with a partial ranking.
  double default_deadline_ms = 0.0;
  /// Admission bound: new submissions are shed with
  /// `Status::ResourceExhausted` when the pool queue already holds this
  /// many tasks.  0 (the default) = unbounded.  Independently of this
  /// bound, a request with a finite deadline is shed at admission when
  /// the observed queue wait (EWMA of recent enqueue→start gaps) would
  /// already consume its remaining budget — shedding at the door is
  /// cheaper than timing out after queueing.
  size_t max_queue_depth = 0;
};

/// \brief Snapshot of the server-side counters (the engine and cache keep
/// their own).  Returned by value from `Server::stats()`; the live state
/// is `obs::Counter` instruments (`wqe.server.*{server=N}`).
struct ServerStats {
  size_t requests = 0;  ///< singles + batched items submitted (shed included)
  size_t batches = 0;   ///< QueryBatch/ExpandBatch calls
  /// Requests whose `Result` came back non-OK (any stage; the per-stage
  /// split is the `wqe.server.errors_total{stage=...}` counter series).
  /// Includes shed and deadline-exceeded requests.
  size_t requests_failed = 0;
  /// Requests refused at admission (`wqe.server.shed_total`).
  size_t shed = 0;
  /// Requests that failed with `Status::DeadlineExceeded` after being
  /// admitted (`wqe.server.deadline_exceeded`).
  size_t deadline_exceeded = 0;
};

/// \brief One coherent-enough view of a serving stack: server, engine and
/// cache counters plus the request-latency distribution — everything the
/// SLO records in the serving bench and the README example are built
/// from.  `request_latency_ms.Percentile(0.99)` is the p99.
struct ServerSnapshot {
  ServerStats server;
  api::EngineStats engine;
  bool cache_enabled = false;
  ExpansionCacheStats cache;  ///< zeros when the cache is disabled
  obs::HistogramSnapshot request_latency_ms;
  size_t queue_depth = 0;  ///< racy by nature (see ThreadPool)
  size_t pool_threads = 0;
  size_t tasks_executed = 0;
};

/// \brief Concurrent front-end over one `api::Engine`.  Thread-safe: any
/// thread may submit requests or batches concurrently.
///
/// Callers must not block inside pool tasks on work queued behind them;
/// all Server entry points are safe to call from non-worker threads.
class Server {
 public:
  /// \brief Wraps `engine` (borrowed; must outlive the server) and locks
  /// its registry.
  explicit Server(const api::Engine& engine, ServerOptions options = {});

  /// \brief Drains in-flight work and joins the pool.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// \name Asynchronous singles
  /// @{
  std::future<Result<api::QueryResponse>> Submit(api::QueryRequest request);
  std::future<Result<api::ExpandResponse>> SubmitExpand(
      api::ExpandRequest request);
  /// @}

  /// \name Parallel batches
  /// Results arrive in input order; identical to `Engine::QueryBatch` /
  /// `Engine::ExpandBatch` output for the same requests.  On any failing
  /// request the whole batch fails (after in-flight work completes) with
  /// the lowest failing index named in the error.
  /// @{
  Result<std::vector<api::QueryResponse>> QueryBatch(
      const std::vector<api::QueryRequest>& requests);
  Result<std::vector<api::ExpandResponse>> ExpandBatch(
      const std::vector<api::ExpandRequest>& requests);
  /// @}

  /// \brief Stops accepting work, finishes what is queued, joins workers.
  /// Idempotent; after shutdown, submissions are a programming error.
  void Shutdown();

  const api::Engine& engine() const { return *engine_; }
  const ThreadPool& pool() const { return pool_; }
  /// \brief Null when the cache is disabled.
  const ExpansionCache* cache() const { return cache_.get(); }
  /// \brief Coherent-enough copy of the server counters (relaxed reads;
  /// exact once in-flight requests drain).
  ServerStats stats() const;
  /// \brief Full serving-stack snapshot: counters, latency distribution,
  /// pool state.  See `ServerSnapshot`.
  ServerSnapshot StatsSnapshot() const;
  /// \brief The registry this server records into (the global one unless
  /// `ServerOptions::registry` redirected it).
  obs::MetricsRegistry& metrics_registry() const { return *registry_; }

 private:
  /// Serves one expansion on the pinned `snapshot`: cache lookup first
  /// (generation-checked), then — on a miss — builds the request's
  /// expander, expands and caches the result.
  Result<api::ExpandResponse> ExpandResolved(
      const api::GraphSnapshot& snapshot, const std::string& resolved,
      const std::string& keywords, const api::ExpanderOverrides& overrides);

  /// One request on the pinned `snapshot` (the expansion, plus retrieval
  /// for queries).  Singles pin on their worker; batches pin once on the
  /// caller thread and pass that pin to every item.
  Result<api::ExpandResponse> ExpandOne(const api::GraphSnapshot& snapshot,
                                        const api::ExpandRequest& request);
  Result<api::QueryResponse> QueryOne(const api::GraphSnapshot& snapshot,
                                      const api::QueryRequest& request);

  /// This server's registry instruments (`{server=N}`-labeled), resolved
  /// once at construction; recording through them is wait-free.  The
  /// stage-error counters share one name (`wqe.server.errors_total`)
  /// split by a `stage` label, mirroring the span stages that can fail.
  struct Instruments {
    obs::Counter* requests = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* requests_failed = nullptr;
    obs::Counter* errors_expander_construction = nullptr;
    obs::Counter* errors_expansion = nullptr;
    obs::Counter* errors_search = nullptr;
    obs::Counter* errors_admission = nullptr;
    obs::Counter* errors_deadline = nullptr;
    obs::Counter* errors_cancelled = nullptr;
    obs::Counter* shed_total = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::Histogram* request_latency = nullptr;
    obs::Histogram* cache_lookup = nullptr;
    obs::Histogram* expander_construction = nullptr;
    obs::Gauge* queue_depth = nullptr;
  };

  /// The execution context one request runs under: its own deadline (or
  /// the server default) computed now, merged with any ambient context
  /// on the submitting thread (the tighter deadline wins).
  common::ExecContext RequestContext(double deadline_ms,
                                     const common::CancelToken& cancel) const;

  /// Admission decision for one request, made on the submitting thread
  /// *before* any task is queued: OK to admit, `ResourceExhausted` (with
  /// counters recorded) to shed.  See `ServerOptions::max_queue_depth`.
  Status AdmitRequest(const common::ExecContext& exec);

  /// Folds one observed enqueue→start gap into the queue-wait EWMA the
  /// admission policy consults.
  void NoteQueueWait(double wait_ms);

  /// Attributes a failed request's status to its obs stage counters
  /// (deadline/cancelled get their own stages and totals).
  void AttributeFailure(const Status& status);

  /// Runs `work()` under a root `request` span (latency → the
  /// `wqe.server.request_latency_ms` histogram), with `exec` installed
  /// as the task's execution context, counting acceptance and failure.
  /// The shared tail of every per-request pool task.  A result that
  /// comes back OK after the budget ran out is demoted to the
  /// interruption status: work finished past its deadline (or after a
  /// cancel) must never be reported as success.
  template <typename Response, typename Work>
  Result<Response> ServeRequest(const common::ExecContext& exec,
                                std::chrono::steady_clock::time_point submitted,
                                Work&& work);

  /// The one enqueue path of singles and batch items: counts the
  /// request, admits it (a shed request becomes an already-failed
  /// future), stamps the submit time and queues `work` on the pool under
  /// `ServeRequest`, then updates the queue-depth gauge.
  template <typename Response, typename Work>
  std::future<Result<Response>> Enqueue(const common::ExecContext& exec,
                                        Work work);

  /// Shared batch skeleton: pin once (caller thread), enqueue `run` per
  /// request, collect in order, surface the lowest failing index with
  /// `what` context.
  template <typename Request, typename Response, typename Run>
  Result<std::vector<Response>> RunBatch(const std::vector<Request>& requests,
                                         const char* what, Run run);

  const api::Engine* engine_;
  ServerOptions options_;
  obs::MetricsRegistry* registry_;  ///< never null after construction
  Instruments instruments_;
  std::unique_ptr<ExpansionCache> cache_;  ///< null when disabled
  /// EWMA (0.8 old / 0.2 new) of observed enqueue→start gaps in ms; the
  /// admission policy's estimate of what a new request would wait.
  std::atomic<double> queue_wait_ewma_ms_{0.0};
  ThreadPool pool_;
};

}  // namespace wqe::serve
