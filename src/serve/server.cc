#include "serve/server.h"

#include <chrono>
#include <string>
#include <utility>

#include "common/fault_injection.h"
#include "common/macros.h"

namespace wqe::serve {

namespace {

/// The deadline `request` runs under: its own budget, or the server's
/// default when it brings none, from now and tightened by any ambient
/// deadline on the submitting thread.
common::Deadline RequestDeadline(const api::QueryRequest& request,
                                 double default_deadline_ms) {
  return common::RequestDeadline(
      request.deadline_ms > 0.0 ? request.deadline_ms : default_deadline_ms);
}

/// An already-failed future, for requests shed at admission: batch
/// collection and single-submit callers consume them exactly like pool
/// results, so fail-atomic lowest-failing-index semantics are untouched.
std::future<Result<api::QueryResponse>> ReadyFuture(Status status) {
  std::promise<Result<api::QueryResponse>> promise;
  promise.set_value(Result<api::QueryResponse>(std::move(status)));
  return promise.get_future();
}

}  // namespace

Server::Server(const api::Engine& engine, ServerOptions options)
    : engine_(&engine),
      options_(std::move(options)),
      pool_(options_.num_threads) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::Labels labels = {
      {"server", std::to_string(obs::NextInstanceId())}};
  instruments_.requests = registry.GetCounter("wqe.server.requests", labels);
  instruments_.batches = registry.GetCounter("wqe.server.batches", labels);
  instruments_.requests_failed =
      registry.GetCounter("wqe.server.requests_failed", labels);
  auto stage_errors = [&](const char* stage) {
    obs::Labels staged = labels;
    staged.emplace_back("stage", stage);
    return registry.GetCounter("wqe.server.errors_total", std::move(staged));
  };
  instruments_.errors_expander_construction =
      stage_errors("expander-construction");
  instruments_.errors_expansion = stage_errors("expansion");
  instruments_.errors_search = stage_errors("search");
  instruments_.errors_admission = stage_errors("admission");
  instruments_.errors_deadline = stage_errors("deadline");
  instruments_.request_latency =
      registry.GetHistogram("wqe.server.request_latency_ms", labels);
  instruments_.cache_lookup =
      registry.GetHistogram("wqe.server.cache_lookup_ms", labels);
  instruments_.expander_construction =
      registry.GetHistogram("wqe.server.expander_construction_ms", labels);
  instruments_.queue_depth =
      registry.GetGauge("wqe.server.queue_depth", labels);
  if (options_.enable_cache) {
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
  stats.shed = instruments_.errors_admission->value();
  stats.deadline_exceeded = instruments_.errors_deadline->value();
  stats.expander_construction_errors =
      instruments_.errors_expander_construction->value();
  stats.expansion_errors = instruments_.errors_expansion->value();
  stats.search_errors = instruments_.errors_search->value();
  stats.request_latency_ms = instruments_.request_latency->snapshot();
  return stats;
}

Status Server::AdmitRequest(const common::Deadline& deadline) {
  Status shed = Status::OK();
  const size_t depth = pool_.queue_depth();
  if (options_.max_queue_depth != 0 && depth >= options_.max_queue_depth) {
    shed = Status::ResourceExhausted("shed: queue depth ", depth,
                                     " at max_queue_depth ",
                                     options_.max_queue_depth);
  } else if (!deadline.is_infinite()) {
    const double remaining_ms = deadline.remaining_ms();
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

Result<api::ExpandResponse> Server::ExpandResolved(
    const api::GraphSnapshot& snapshot, const std::string& resolved,
    const std::string& keywords, const api::ExpanderOverrides& overrides) {
  // A failure counts in one stage counter here, except a deadline
  // failure, which counts in the `deadline` stage (ServeRequest): one
  // failed request is attributed exactly once.
  auto fail = [](obs::Counter* stage, Status status) {
    if (!status.IsDeadlineExceeded()) stage->Inc();
    return status;
  };
  ExpansionCache::Key key;
  if (cache_ != nullptr) {
    key = ExpansionCache::Key{keywords, resolved, overrides};
    Result<std::shared_ptr<const api::ExpandResponse>> hit =
        [&]() -> Result<std::shared_ptr<const api::ExpandResponse>> {
      obs::Span span("cache-lookup", instruments_.cache_lookup);
      WQE_FAULT_POINT("serve.cache_lookup");
      return cache_->Get(key, snapshot.generation);
    }();
    // The lookup is the first step of the expansion, and fails with it.
    if (!hit.ok()) return fail(instruments_.errors_expansion, hit.status());
    if (*hit != nullptr) return **hit;  // copy out of the shared entry
  }
  // Only a miss needs an expander, built against the pinned epoch.
  Result<std::unique_ptr<expansion::Expander>> built =
      [&]() -> Result<std::unique_ptr<expansion::Expander>> {
    obs::Span span("expander-construction",
                   instruments_.expander_construction);
    WQE_FAULT_POINT("serve.expander_construction");
    return engine_->BuildExpander(snapshot, resolved, overrides);
  }();
  if (!built.ok()) {
    return fail(instruments_.errors_expander_construction, built.status());
  }
  Result<api::ExpandResponse> response =
      engine_->ExpandWith(**built, resolved, keywords);
  if (!response.ok()) {
    return fail(instruments_.errors_expansion, response.status());
  }
  // An OK response is always a *complete* expansion (the expander turns
  // truncated enumerations into errors), so it is safe to cache even if
  // the request itself is later demoted for finishing past its deadline.
  // Stamped with the pinned generation: entries computed on an epoch
  // that was republished away die on their next lookup.
  if (cache_ != nullptr) cache_->Put(key, *response, snapshot.generation);
  return response;
}

Result<api::QueryResponse> Server::QueryOne(const api::GraphSnapshot& snapshot,
                                            const api::QueryRequest& request) {
  WQE_ASSIGN_OR_RETURN(
      api::ExpandResponse expansion,
      ExpandResolved(snapshot, engine_->ResolveStrategy(request.expander),
                     request.keywords, request.overrides));
  Result<api::QueryResponse> response =
      engine_->QueryWithExpansion(std::move(expansion), request.top_k);
  if (!response.ok() && !response.status().IsDeadlineExceeded()) {
    instruments_.errors_search->Inc();
  }
  return response;
}

template <typename Work>
Result<api::QueryResponse> Server::ServeRequest(
    const common::Deadline& deadline,
    std::chrono::steady_clock::time_point submitted, Work&& work) {
  NoteQueueWait(std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - submitted)
                    .count());
  common::ScopedDeadline deadline_scope(deadline);
  obs::Span span("request", instruments_.request_latency);
  Result<api::QueryResponse> result = work();
  if (result.ok()) {
    // Work that finished after its budget ran out is not a success: the
    // caller has already given up, and honoring the deadline uniformly
    // keeps outcomes deterministic for a given schedule.
    Status interrupted = common::ExecStatus();
    if (!interrupted.ok()) result = std::move(interrupted);
  }
  if (!result.ok()) {
    instruments_.requests_failed->Inc();
    if (result.status().IsDeadlineExceeded()) {
      instruments_.errors_deadline->Inc();
    }
  }
  return result;
}

template <typename Work>
std::future<Result<api::QueryResponse>> Server::Enqueue(
    const common::Deadline& deadline, Work work) {
  instruments_.requests->Inc();
  if (Status admit = AdmitRequest(deadline); !admit.ok()) {
    return ReadyFuture(std::move(admit));
  }
  const auto submitted = std::chrono::steady_clock::now();
  auto future =
      pool_.Submit([this, deadline, submitted, work = std::move(work)] {
        return ServeRequest(deadline, submitted, work);
      });
  instruments_.queue_depth->Set(static_cast<double>(pool_.queue_depth()));
  return future;
}

// Singles pin the graph epoch on the worker, when the request starts; the
// temporary pin lives until the request returns, and a concurrent
// PublishSnapshot retires the old epoch only after pins like it drain.
std::future<Result<api::QueryResponse>> Server::Submit(
    api::QueryRequest request) {
  const common::Deadline deadline =
      RequestDeadline(request, options_.default_deadline_ms);
  return Enqueue(deadline, [this, request = std::move(request)] {
    return QueryOne(*engine_->CurrentSnapshot(), request);
  });
}

Result<std::vector<api::QueryResponse>> Server::QueryBatch(
    const std::vector<api::QueryRequest>& requests) {
  // Root span for the whole batch: the per-request `request` spans parent
  // under it (their tasks run with this context re-installed by the
  // pool), so one trace covers submit → queue-wait → stages → merge.
  obs::Span batch_span("batch");
  instruments_.batches->Inc();

  // One pin for the whole batch, on the caller thread: every item runs
  // on the same graph epoch, so the batch's responses stay mutually
  // consistent across a mid-batch republish.
  std::shared_ptr<const api::GraphSnapshot> snapshot =
      engine_->CurrentSnapshot();

  // Fan out.  Tasks borrow `requests` and `snapshot`; the collection
  // below waits on every future before this frame can unwind, so the
  // borrows are safe even on failure.  Admission is per item: a shed slot
  // becomes an already-failed future, so shed, deadline and ordinary
  // failures share the lowest-failing-index semantics.
  std::vector<std::future<Result<api::QueryResponse>>> futures;
  futures.reserve(requests.size());
  for (const api::QueryRequest& request : requests) {
    futures.push_back(
        Enqueue(RequestDeadline(request, options_.default_deadline_ms),
                [this, &snapshot, &request] {
                  return QueryOne(*snapshot, request);
                }));
  }

  // Collect every result, then surface the lowest failing index
  // (matching the sequential batch's first-error semantics).
  std::vector<Result<api::QueryResponse>> results;
  results.reserve(futures.size());
  for (auto& future : futures) results.push_back(future.get());
  obs::Span merge_span("merge");
  std::vector<api::QueryResponse> responses;
  responses.reserve(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      return results[i].status().WithContext("QueryBatch request #" +
                                             std::to_string(i));
    }
    responses.push_back(std::move(*results[i]));
  }
  return responses;
}

}  // namespace wqe::serve
