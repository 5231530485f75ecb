#include "serve/server.h"

#include <chrono>
#include <string>
#include <utility>

#include "common/fault_injection.h"
#include "common/macros.h"

namespace wqe::serve {

namespace {

/// Interruption outcomes (deadline/cancel) get their own obs stages; the
/// per-stage error counters for expander-construction/expansion/search
/// skip them so one failed request is attributed exactly once.
bool IsInterruption(const Status& status) {
  return status.IsDeadlineExceeded() || status.IsCancelled();
}

/// An already-failed future, for requests shed at admission: batch
/// collection and single-submit callers consume them exactly like pool
/// results, so fail-atomic lowest-failing-index semantics are untouched.
template <typename Response>
std::future<Result<Response>> ReadyFuture(Status status) {
  std::promise<Result<Response>> promise;
  promise.set_value(Result<Response>(std::move(status)));
  return promise.get_future();
}

}  // namespace

Server::Server(const api::Engine& engine, ServerOptions options)
    : engine_(&engine),
      options_(std::move(options)),
      registry_(options_.registry != nullptr ? options_.registry
                                             : &obs::MetricsRegistry::Global()),
      pool_(options_.num_threads) {
  engine_->LockRegistry();
  const obs::Labels labels = {
      {"server", std::to_string(obs::NextInstanceId())}};
  instruments_.requests = registry_->GetCounter("wqe.server.requests", labels);
  instruments_.batches = registry_->GetCounter("wqe.server.batches", labels);
  instruments_.requests_failed =
      registry_->GetCounter("wqe.server.requests_failed", labels);
  auto stage_errors = [&](const char* stage) {
    obs::Labels staged = labels;
    staged.emplace_back("stage", stage);
    return registry_->GetCounter("wqe.server.errors_total", std::move(staged));
  };
  instruments_.errors_expander_construction =
      stage_errors("expander-construction");
  instruments_.errors_expansion = stage_errors("expansion");
  instruments_.errors_search = stage_errors("search");
  instruments_.errors_admission = stage_errors("admission");
  instruments_.errors_deadline = stage_errors("deadline");
  instruments_.errors_cancelled = stage_errors("cancelled");
  instruments_.shed_total =
      registry_->GetCounter("wqe.server.shed_total", labels);
  instruments_.deadline_exceeded =
      registry_->GetCounter("wqe.server.deadline_exceeded", labels);
  instruments_.request_latency =
      registry_->GetHistogram("wqe.server.request_latency_ms", labels);
  instruments_.cache_lookup =
      registry_->GetHistogram("wqe.server.cache_lookup_ms", labels);
  instruments_.expander_construction =
      registry_->GetHistogram("wqe.server.expander_construction_ms", labels);
  instruments_.queue_depth =
      registry_->GetGauge("wqe.server.queue_depth", labels);
  // The cache registers its own counters; default it into this server's
  // registry so one knob isolates the whole stack.
  if (options_.enable_cache) {
    if (options_.cache.registry == nullptr) {
      options_.cache.registry = registry_;
    }
    cache_ = std::make_unique<ExpansionCache>(options_.cache);
  }
}

Server::~Server() { Shutdown(); }

void Server::Shutdown() { pool_.Shutdown(); }

ServerStats Server::stats() const {
  ServerStats stats;
  stats.requests = instruments_.requests->value();
  stats.batches = instruments_.batches->value();
  stats.requests_failed = instruments_.requests_failed->value();
  stats.shed = instruments_.shed_total->value();
  stats.deadline_exceeded = instruments_.deadline_exceeded->value();
  return stats;
}

ServerSnapshot Server::StatsSnapshot() const {
  ServerSnapshot snapshot;
  snapshot.server = stats();
  snapshot.engine = engine_->stats();
  snapshot.cache_enabled = cache_ != nullptr;
  if (cache_ != nullptr) snapshot.cache = cache_->stats();
  snapshot.request_latency_ms = instruments_.request_latency->snapshot();
  snapshot.queue_depth = pool_.queue_depth();
  snapshot.pool_threads = pool_.num_threads();
  snapshot.tasks_executed = pool_.tasks_executed();
  return snapshot;
}

common::ExecContext Server::RequestContext(
    double deadline_ms, const common::CancelToken& cancel) const {
  common::ExecContext request;
  const double budget_ms =
      deadline_ms > 0.0 ? deadline_ms : options_.default_deadline_ms;
  if (budget_ms > 0.0) {
    request.deadline = common::Deadline::AfterMillis(budget_ms);
  }
  request.cancel = cancel;
  return common::ExecContext::Merge(common::CurrentExecContext(), request);
}

Status Server::AdmitRequest(const common::ExecContext& exec) {
  Status shed = Status::OK();
  const size_t depth = pool_.queue_depth();
  if (options_.max_queue_depth != 0 && depth >= options_.max_queue_depth) {
    shed = Status::ResourceExhausted("shed: queue depth ", depth,
                                     " at max_queue_depth ",
                                     options_.max_queue_depth);
  } else if (!exec.deadline.is_infinite()) {
    const double remaining_ms = exec.deadline.remaining_ms();
    const double expected_wait_ms =
        queue_wait_ewma_ms_.load(std::memory_order_relaxed);
    if (remaining_ms <= 0.0) {
      shed = Status::ResourceExhausted(
          "shed: deadline already expired at admission");
    } else if (expected_wait_ms >= remaining_ms) {
      shed = Status::ResourceExhausted("shed: expected queue wait ",
                                       expected_wait_ms,
                                       "ms exceeds remaining budget ",
                                       remaining_ms, "ms");
    }
  }
  if (!shed.ok()) {
    instruments_.shed_total->Inc();
    instruments_.errors_admission->Inc();
    instruments_.requests_failed->Inc();
  }
  return shed;
}

void Server::NoteQueueWait(double wait_ms) {
  double old_ewma = queue_wait_ewma_ms_.load(std::memory_order_relaxed);
  double next;
  do {
    next = old_ewma == 0.0 ? wait_ms : 0.8 * old_ewma + 0.2 * wait_ms;
  } while (!queue_wait_ewma_ms_.compare_exchange_weak(
      old_ewma, next, std::memory_order_relaxed));
}

void Server::AttributeFailure(const Status& status) {
  if (status.IsDeadlineExceeded()) {
    instruments_.deadline_exceeded->Inc();
    instruments_.errors_deadline->Inc();
  } else if (status.IsCancelled()) {
    instruments_.errors_cancelled->Inc();
  }
}

Result<api::ExpandResponse> Server::ExpandResolved(
    const api::GraphSnapshot& snapshot, const std::string& resolved,
    const std::string& keywords, const api::ExpanderOverrides& overrides) {
  ExpansionCache::Key key;
  if (cache_ != nullptr) {
    key = ExpansionCache::Key{keywords, resolved, overrides};
    std::shared_ptr<const api::ExpandResponse> hit;
    {
      obs::Span span("cache-lookup", instruments_.cache_lookup, registry_);
      WQE_FAULT_POINT("serve.cache_lookup");
      hit = cache_->Get(key, snapshot.generation);
    }
    if (hit != nullptr) return *hit;  // copy out of the shared entry
  }
  // Only a miss needs an expander, built against the pinned epoch.
  std::unique_ptr<expansion::Expander> expander;
  {
    obs::Span span("expander-construction", instruments_.expander_construction,
                   registry_);
    WQE_FAULT_POINT("serve.expander_construction");
    Result<std::unique_ptr<expansion::Expander>> built =
        engine_->BuildExpander(snapshot, resolved, overrides);
    if (!built.ok()) {
      instruments_.errors_expander_construction->Inc();
      return built.status();
    }
    expander = std::move(*built);
  }
  Result<api::ExpandResponse> response =
      engine_->ExpandWith(*expander, resolved, keywords);
  if (!response.ok()) {
    if (!IsInterruption(response.status())) {
      instruments_.errors_expansion->Inc();
    }
    return response.status();
  }
  // An OK response is always a *complete* expansion (the expander turns
  // truncated enumerations into errors), so it is safe to cache even if
  // the request itself is later demoted for finishing past its deadline.
  // Stamped with the pinned generation: entries computed on an epoch
  // that was republished away die on their next lookup.
  if (cache_ != nullptr) cache_->Put(key, *response, snapshot.generation);
  return response;
}

Result<api::ExpandResponse> Server::ExpandOne(
    const api::GraphSnapshot& snapshot, const api::ExpandRequest& request) {
  return ExpandResolved(snapshot, engine_->ResolveStrategy(request.expander),
                        request.keywords, request.overrides);
}

Result<api::QueryResponse> Server::QueryOne(const api::GraphSnapshot& snapshot,
                                            const api::QueryRequest& request) {
  WQE_ASSIGN_OR_RETURN(
      api::ExpandResponse expansion,
      ExpandResolved(snapshot, engine_->ResolveStrategy(request.expander),
                     request.keywords, request.overrides));
  Result<api::QueryResponse> response =
      engine_->QueryWithExpansion(std::move(expansion), request.top_k);
  if (!response.ok() && !IsInterruption(response.status())) {
    instruments_.errors_search->Inc();
  }
  return response;
}

template <typename Response, typename Work>
Result<Response> Server::ServeRequest(
    const common::ExecContext& exec,
    std::chrono::steady_clock::time_point submitted, Work&& work) {
  NoteQueueWait(std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - submitted)
                    .count());
  common::ScopedExecContext exec_scope(exec);
  obs::Span span("request", instruments_.request_latency, registry_);
  Result<Response> result = work();
  if (result.ok()) {
    // Work that finished after its budget ran out is not a success: the
    // caller has already given up, and honoring the deadline uniformly
    // keeps outcomes deterministic for a given schedule.
    Status interrupted = common::ExecStatus();
    if (!interrupted.ok()) result = std::move(interrupted);
  }
  if (!result.ok()) {
    instruments_.requests_failed->Inc();
    AttributeFailure(result.status());
  }
  return result;
}

template <typename Response, typename Work>
std::future<Result<Response>> Server::Enqueue(const common::ExecContext& exec,
                                              Work work) {
  instruments_.requests->Inc();
  if (Status admit = AdmitRequest(exec); !admit.ok()) {
    return ReadyFuture<Response>(std::move(admit));
  }
  const auto submitted = std::chrono::steady_clock::now();
  auto future = pool_.Submit([this, exec, submitted, work = std::move(work)] {
    return ServeRequest<Response>(exec, submitted, work);
  });
  instruments_.queue_depth->Set(static_cast<double>(pool_.queue_depth()));
  return future;
}

// Singles pin the graph epoch on the worker, when the request starts; the
// temporary pin lives until the request returns, and a concurrent
// PublishSnapshot retires the old epoch only after pins like it drain.
std::future<Result<api::QueryResponse>> Server::Submit(
    api::QueryRequest request) {
  const common::ExecContext exec =
      RequestContext(request.deadline_ms, request.cancel);
  return Enqueue<api::QueryResponse>(
      exec, [this, request = std::move(request)] {
        return QueryOne(*engine_->CurrentSnapshot(), request);
      });
}

std::future<Result<api::ExpandResponse>> Server::SubmitExpand(
    api::ExpandRequest request) {
  const common::ExecContext exec =
      RequestContext(request.deadline_ms, request.cancel);
  return Enqueue<api::ExpandResponse>(
      exec, [this, request = std::move(request)] {
        return ExpandOne(*engine_->CurrentSnapshot(), request);
      });
}

template <typename Request, typename Response, typename Run>
Result<std::vector<Response>> Server::RunBatch(
    const std::vector<Request>& requests, const char* what, Run run) {
  // Root span for the whole batch: the per-request `request` spans parent
  // under it (their tasks run with this context re-installed by the
  // pool), so one trace covers submit → queue-wait → stages → merge.
  obs::Span batch_span("batch", /*latency=*/nullptr, registry_);
  instruments_.batches->Inc();

  // One pin for the whole batch, on the caller thread: every item runs
  // on the same graph epoch, so the batch's responses stay mutually
  // consistent across a mid-batch republish.
  std::shared_ptr<const api::GraphSnapshot> snapshot =
      engine_->CurrentSnapshot();

  // Fan out.  Tasks borrow `requests`, `run` and `snapshot`; the
  // collection below waits on every future before this frame can unwind,
  // so the borrows are safe even on failure.  Admission is per item: a
  // shed slot becomes an already-failed future, so shed, deadline and
  // ordinary failures share the lowest-failing-index semantics.
  std::vector<std::future<Result<Response>>> futures;
  futures.reserve(requests.size());
  for (const Request& request : requests) {
    futures.push_back(Enqueue<Response>(
        RequestContext(request.deadline_ms, request.cancel),
        [&run, &snapshot, &request] { return run(*snapshot, request); }));
  }

  // Collect every result, then surface the lowest failing index
  // (matching the sequential batch's first-error semantics).
  std::vector<Result<Response>> results;
  results.reserve(futures.size());
  for (auto& future : futures) results.push_back(future.get());
  obs::Span merge_span("merge", /*latency=*/nullptr, registry_);
  std::vector<Response> responses;
  responses.reserve(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      return results[i].status().WithContext(std::string(what) +
                                             " request #" + std::to_string(i));
    }
    responses.push_back(std::move(*results[i]));
  }
  return responses;
}

Result<std::vector<api::QueryResponse>> Server::QueryBatch(
    const std::vector<api::QueryRequest>& requests) {
  return RunBatch<api::QueryRequest, api::QueryResponse>(
      requests, "QueryBatch",
      [this](const api::GraphSnapshot& snapshot,
             const api::QueryRequest& request) {
        return QueryOne(snapshot, request);
      });
}

Result<std::vector<api::ExpandResponse>> Server::ExpandBatch(
    const std::vector<api::ExpandRequest>& requests) {
  return RunBatch<api::ExpandRequest, api::ExpandResponse>(
      requests, "ExpandBatch",
      [this](const api::GraphSnapshot& snapshot,
             const api::ExpandRequest& request) {
        return ExpandOne(snapshot, request);
      });
}

}  // namespace wqe::serve
