#pragma once

/// \file server.h
/// \brief The concurrent serving core: Engine + ThreadPool + ExpansionCache.
///
/// `api::Engine`'s serving calls are const and internally thread-safe, but
/// the facade itself is sequential: a batch runs on the caller's thread and
/// a repeated query re-runs linking and cycle enumeration from scratch.
/// `serve::Server` wraps an engine with the two serving-side pieces:
///
///   - `Submit` enqueues one query on the worker pool and returns a
///     `std::future` for its `Result`;
///   - `QueryBatch` fans a batch across the pool and blocks until every
///     response is in, preserving input order and the engine's
///     fail-atomic error contract ("request #i" contexts);
///   - every expansion is served through an LRU `ExpansionCache` keyed by
///     `(keywords, resolved strategy, overrides)`, so repeated queries
///     skip linking + enumeration entirely (hits/misses are the cache's
///     own counters, `cache()->stats()`).
///
/// The server serves one request type, `api::QueryRequest`.  Singles and
/// batch items run one request path: admission, then on a worker a cache
/// lookup and, on a miss, the request's own expander built and run
/// against the pinned snapshot, then retrieval.
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
/// One pool per server, and one level of parallelism: each request runs
/// on one worker, start to finish, and never fans out again.
///
/// A request's one budget is its deadline: `QueryRequest::deadline_ms`,
/// or `ServerOptions::default_deadline_ms` when it brings none, computed
/// at submission (`common::RequestDeadline`, the helper `api::Engine`
/// uses too) and carried onto the worker by the pool.
///
/// Observability: the server records into the global metrics registry,
/// like the engine, the cache and the pool, so every span of a request
/// lands in one trace log.  Its instruments carry a `{server=N}` label
/// that keeps each server's series apart; `stats()` reads them.

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

/// \brief Snapshot of the server's own instruments (the engine, cache
/// and pool report through `engine().stats()`, `cache()->stats()` and
/// `pool()`).  Returned by value from `Server::stats()`; the live state
/// is the `wqe.server.*{server=N}` instruments.
struct ServerStats {
  size_t requests = 0;  ///< singles + batched items submitted (shed included)
  size_t batches = 0;   ///< QueryBatch calls
  /// Requests whose `Result` came back non-OK, shed and deadline-exceeded
  /// ones included.  The five counts below split them by the stage that
  /// failed: the `wqe.server.errors_total{stage=...}` series.
  size_t requests_failed = 0;
  size_t shed = 0;  ///< refused at admission (stage `admission`)
  /// Admitted, then failed with `Status::DeadlineExceeded` (stage
  /// `deadline`).
  size_t deadline_exceeded = 0;
  size_t expander_construction_errors = 0;  ///< `expander-construction`
  size_t expansion_errors = 0;              ///< `expansion`
  size_t search_errors = 0;                 ///< `search`
  /// Latency of every request that reached a worker, failures included
  /// (`wqe.server.request_latency_ms`); `Percentile(0.99)` is the p99.
  obs::HistogramSnapshot request_latency_ms;
};

/// \brief Concurrent front-end over one `api::Engine`.  Thread-safe: any
/// thread may submit requests or batches concurrently.
///
/// Callers must not block inside pool tasks on work queued behind them;
/// all Server entry points are safe to call from non-worker threads.
class Server {
 public:
  /// \brief Wraps `engine` (borrowed; must outlive the server).
  explicit Server(const api::Engine& engine, ServerOptions options = {});

  /// \brief Drains in-flight work and joins the pool.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// \brief Queues one request; the worker pins the current graph epoch
  /// when the request starts.
  std::future<Result<api::QueryResponse>> Submit(api::QueryRequest request);

  /// \brief Runs a batch in parallel on one pinned graph epoch.  Results
  /// arrive in input order, identical to `Engine::QueryBatch` output for
  /// the same requests.  On any failing request the whole batch fails
  /// (after in-flight work completes) with the lowest failing index named
  /// in the error.
  Result<std::vector<api::QueryResponse>> QueryBatch(
      const std::vector<api::QueryRequest>& requests);

  /// \brief Stops accepting work, finishes what is queued, joins workers.
  /// Idempotent; after shutdown, submissions are a programming error.
  void Shutdown();

  const api::Engine& engine() const { return *engine_; }
  const ThreadPool& pool() const { return pool_; }
  /// \brief Null when the cache is disabled.
  const ExpansionCache* cache() const { return cache_.get(); }
  /// \brief Coherent-enough copy of the server's instruments (relaxed
  /// reads; exact once in-flight requests drain).
  ServerStats stats() const;

 private:
  /// Serves one expansion on the pinned `snapshot`: cache lookup first
  /// (generation-checked), then — on a miss — builds the request's
  /// expander, expands and caches the result.
  Result<api::ExpandResponse> ExpandResolved(
      const api::GraphSnapshot& snapshot, const std::string& resolved,
      const std::string& keywords, const api::ExpanderOverrides& overrides);

  /// One request on the pinned `snapshot`: the expansion, then retrieval.
  /// Singles pin on their worker; batches pin once on the caller thread
  /// and pass that pin to every item.
  Result<api::QueryResponse> QueryOne(const api::GraphSnapshot& snapshot,
                                      const api::QueryRequest& request);

  /// This server's instruments (`{server=N}`-labeled), resolved once at
  /// construction; recording through them is wait-free.  The stage-error
  /// counters share one name (`wqe.server.errors_total`) split by a
  /// `stage` label, mirroring the span stages that can fail.
  struct Instruments {
    obs::Counter* requests = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* requests_failed = nullptr;
    obs::Counter* errors_expander_construction = nullptr;
    obs::Counter* errors_expansion = nullptr;
    obs::Counter* errors_search = nullptr;
    obs::Counter* errors_admission = nullptr;
    obs::Counter* errors_deadline = nullptr;
    obs::Histogram* request_latency = nullptr;
    obs::Histogram* cache_lookup = nullptr;
    obs::Histogram* expander_construction = nullptr;
    obs::Gauge* queue_depth = nullptr;
  };

  /// Admission decision for one request, made on the submitting thread
  /// *before* any task is queued: OK to admit, `ResourceExhausted` (with
  /// counters recorded) to shed.  See `ServerOptions::max_queue_depth`.
  Status AdmitRequest(const common::Deadline& deadline);

  /// Folds one observed enqueue→start gap into the queue-wait EWMA the
  /// admission policy consults.
  void NoteQueueWait(double wait_ms);

  /// Runs `work()` under a root `request` span (latency → the
  /// `wqe.server.request_latency_ms` histogram), with `deadline`
  /// installed as the task's ambient deadline, counting acceptance and
  /// failure (a deadline failure gets its own stage).  The
  /// shared tail of every per-request pool task.  A result that comes
  /// back OK after the budget ran out is demoted to DeadlineExceeded:
  /// work finished past its deadline must never be reported as success.
  template <typename Work>
  Result<api::QueryResponse> ServeRequest(
      const common::Deadline& deadline,
      std::chrono::steady_clock::time_point submitted, Work&& work);

  /// The one enqueue path of singles and batch items: counts the
  /// request, admits it (a shed request becomes an already-failed
  /// future), stamps the submit time and queues `work` on the pool under
  /// `ServeRequest`, then updates the queue-depth gauge.
  template <typename Work>
  std::future<Result<api::QueryResponse>> Enqueue(
      const common::Deadline& deadline, Work work);

  const api::Engine* engine_;
  ServerOptions options_;
  Instruments instruments_;
  std::unique_ptr<ExpansionCache> cache_;  ///< null when disabled
  /// EWMA (0.8 old / 0.2 new) of observed enqueue→start gaps in ms; the
  /// admission policy's estimate of what a new request would wait.
  std::atomic<double> queue_wait_ewma_ms_{0.0};
  ThreadPool pool_;
};

}  // namespace wqe::serve
