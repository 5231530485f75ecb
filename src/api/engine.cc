#include "api/engine.h"

#include <utility>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "obs/trace.h"

namespace wqe::api {

namespace {

/// The execution context a request should run under: its own budget
/// (deadline computed now, cancel token as given) merged with whatever
/// ambient context the caller already installed — the tighter deadline
/// wins, so a serve-layer default cannot be loosened per request.
common::ExecContext RequestExecContext(double deadline_ms,
                                       const common::CancelToken& cancel) {
  common::ExecContext request;
  if (deadline_ms > 0.0) {
    request.deadline = common::Deadline::AfterMillis(deadline_ms);
  }
  request.cancel = cancel;
  return common::ExecContext::Merge(common::CurrentExecContext(), request);
}

/// Stage latency histograms, shared by every engine (per-stage timing is
/// a process-level view; the per-instance split lives in the counters).
obs::Histogram* ExpandHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram("wqe.engine.expand_ms");
  return histogram;
}

obs::Histogram* PrepareHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "wqe.engine.query_prepare_ms");
  return histogram;
}

obs::Histogram* SearchHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram("wqe.engine.search_ms");
  return histogram;
}

/// Retrieval needs the finalized index; queries check before expanding,
/// so an unindexed engine fails without doing the expansion work.
Status CheckIndexed(const ir::SearchEngine& search) {
  if (search.finalized()) return Status::OK();
  return Status::InvalidArgument(
      "Query before FinalizeIndex(): the corpus is not indexed yet");
}

/// Resolves `query` against `search`'s index under its own span, so the
/// `expansion` and `search` spans time only their own work.
Result<ir::PreparedQuery> PrepareTimed(const ir::SearchEngine& search,
                                       const ir::QueryNode& query) {
  obs::Span span("query-prepare", PrepareHistogram());
  return search.Prepare(query);
}

/// Runs `run` over every request in order and fails atomically: the
/// first failing request aborts the batch, named as "`what` request #i".
template <typename Response, typename Request, typename Run>
Result<std::vector<Response>> RunBatch(const std::vector<Request>& requests,
                                       const char* what, Run run) {
  std::vector<Response> responses;
  responses.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    Result<Response> response = run(requests[i]);
    if (!response.ok()) {
      return response.status().WithContext(std::string(what) + " request #" +
                                           std::to_string(i));
    }
    responses.push_back(std::move(*response));
  }
  return responses;
}

}  // namespace

Result<std::unique_ptr<Engine>> Engine::Build(wiki::KnowledgeBase kb,
                                              EngineOptions options) {
  if (options.default_top_k == 0) {
    return Status::InvalidArgument("default_top_k must be > 0");
  }
  std::unique_ptr<Engine> engine(new Engine());
  engine->options_ = std::move(options);
  engine->search_ =
      std::make_unique<ir::SearchEngine>(engine->options_.search);
  engine->registry_ =
      ExpanderRegistry::WithBuiltins(engine->options_.strategies);
  if (!engine->registry_.Contains(engine->options_.default_expander)) {
    return Status::InvalidArgument("default expander '",
                                   engine->options_.default_expander,
                                   "' is not registered");
  }
  // Register this engine's counter series under a process-unique
  // instance label; the pointers are stable for the process lifetime.
  const obs::Labels labels = {
      {"engine", std::to_string(obs::NextInstanceId())}};
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  engine->counters_.expand_calls =
      registry.GetCounter("wqe.engine.expand_calls", labels);
  engine->counters_.searches =
      registry.GetCounter("wqe.engine.searches", labels);
  engine->counters_.snapshot_generation =
      registry.GetGauge("wqe.server.snapshot_generation", labels);
  // Publish the initial graph epoch (generation 1).  Freezing happens
  // inside MakeSnapshot — the one-way bridge that compiles the structural
  // CSR every expander and worker thread will share.
  {
    common::MutexLock lock(engine->snapshot_mu_);
    engine->snapshot_ =
        engine->MakeSnapshot(std::move(kb), ++engine->next_generation_);
  }
  engine->counters_.snapshot_generation->Set(1.0);
  return engine;
}

std::shared_ptr<const GraphSnapshot> Engine::MakeSnapshot(
    wiki::KnowledgeBase kb, uint64_t generation) const {
  auto snapshot = std::make_shared<GraphSnapshot>();
  snapshot->kb = std::move(kb);
  snapshot->kb.Freeze();
  // Built after the KB lands at its final heap address: the linker keeps
  // a pointer to it.
  snapshot->linker = std::make_unique<linking::EntityLinker>(&snapshot->kb,
                                                             options_.linker);
  snapshot->generation = generation;
  return snapshot;
}

Status Engine::PublishSnapshot(wiki::KnowledgeBase kb) {
  obs::Span span("snapshot-publish");
  std::shared_ptr<const GraphSnapshot> snapshot =
      MakeSnapshot(std::move(kb), ++next_generation_);
  // The mutex publishes the fully built KB/linker to every reader that
  // pins after this point.  Old epochs retire when the last in-flight
  // request that pinned them drains — publishing never waits for them.
  {
    common::MutexLock lock(snapshot_mu_);
    snapshot_ = snapshot;
  }
  counters_.snapshot_generation->Set(
      static_cast<double>(snapshot->generation));
  return Status::OK();
}

EngineStats Engine::stats() const {
  EngineStats stats;
  stats.expand_calls = counters_.expand_calls->value();
  stats.searches = counters_.searches->value();
  return stats;
}

Result<ir::DocId> Engine::AddDocument(std::string_view name,
                                      std::string_view text) {
  return search_->AddDocument(name, text);
}

Status Engine::FinalizeIndex() { return search_->Finalize(); }

ExpanderRegistry& Engine::registry() {
  // The registry-freeze contract (see LockRegistry in the header): once a
  // serve::Server has locked the registry, mutable access would race the
  // lock-free ResolveStrategy reads on its workers.  Dynamic enforcement
  // — the flag is a phase transition, which the static thread-safety
  // analysis cannot express.
  WQE_DCHECK(!registry_locked());  // no registration once serving started
  return registry_;
}

std::string Engine::ResolveStrategy(std::string_view expander) const {
  return registry_.Resolve(expander.empty() ? options_.default_expander
                                            : expander);
}

Result<std::unique_ptr<expansion::Expander>> Engine::BuildExpander(
    const GraphSnapshot& snapshot, std::string_view expander,
    const ExpanderOverrides& overrides) const {
  return registry_.Create(ResolveStrategy(expander), snapshot.kb,
                          *snapshot.linker, overrides);
}

Result<ExpandResponse> Engine::ExpandWith(const expansion::Expander& expander,
                                          std::string_view resolved_name,
                                          std::string_view keywords) const {
  ExpandResponse response;
  {
    Stopwatch watch;
    obs::Span span("expansion", ExpandHistogram());
    WQE_ASSIGN_OR_RETURN(expansion::ExpandedQuery expanded,
                         expander.Expand(keywords));
    response.expander = std::string(resolved_name);
    response.query_articles = std::move(expanded.query_articles);
    response.feature_articles = std::move(expanded.feature_articles);
    response.titles = std::move(expanded.titles);
    response.query = std::move(expanded.query);
    response.expand_ms = watch.ElapsedMillis();
  }
  // Prepared once per expansion: every retrieval of this response, cache
  // hits included, scores from the term ids.
  if (search_->finalized()) {
    WQE_ASSIGN_OR_RETURN(response.prepared,
                         PrepareTimed(*search_, response.query));
  }
  counters_.expand_calls->Inc();
  return response;
}

Result<QueryResponse> Engine::QueryWithExpansion(ExpandResponse expansion,
                                                 size_t top_k) const {
  WQE_RETURN_NOT_OK(CheckIndexed(*search_));
  Stopwatch total;
  QueryResponse response;
  response.expansion = std::move(expansion);
  size_t k = top_k == 0 ? options_.default_top_k : top_k;
  // Made before FinalizeIndex or by another engine: re-prepare here.
  ir::PreparedQuery& prepared = response.expansion.prepared;
  if (prepared.index_id != search_->index().id()) {
    WQE_ASSIGN_OR_RETURN(prepared,
                         PrepareTimed(*search_, response.expansion.query));
  }
  Stopwatch search_watch;
  {
    obs::Span span("search", SearchHistogram());
    WQE_ASSIGN_OR_RETURN(response.docs, search_->Search(prepared, k));
  }
  counters_.searches->Inc();
  response.search_ms = search_watch.ElapsedMillis();
  response.total_ms = total.ElapsedMillis();
  return response;
}

Result<ExpandResponse> Engine::ExpandPinned(
    const GraphSnapshot& snapshot, const ExpandRequest& request) const {
  common::ScopedExecContext exec_scope(
      RequestExecContext(request.deadline_ms, request.cancel));
  const std::string name = ResolveStrategy(request.expander);
  WQE_ASSIGN_OR_RETURN(std::unique_ptr<expansion::Expander> expander,
                       BuildExpander(snapshot, name, request.overrides));
  return ExpandWith(*expander, name, request.keywords);
}

Result<QueryResponse> Engine::QueryPinned(const GraphSnapshot& snapshot,
                                          const QueryRequest& request) const {
  common::ScopedExecContext exec_scope(
      RequestExecContext(request.deadline_ms, request.cancel));
  const std::string name = ResolveStrategy(request.expander);
  WQE_ASSIGN_OR_RETURN(std::unique_ptr<expansion::Expander> expander,
                       BuildExpander(snapshot, name, request.overrides));
  WQE_RETURN_NOT_OK(CheckIndexed(*search_));
  Stopwatch total;
  WQE_ASSIGN_OR_RETURN(ExpandResponse expansion,
                       ExpandWith(*expander, name, request.keywords));
  WQE_ASSIGN_OR_RETURN(
      QueryResponse response,
      QueryWithExpansion(std::move(expansion), request.top_k));
  response.total_ms = total.ElapsedMillis();
  return response;
}

// Singles pin the graph epoch for the whole request: a concurrent
// PublishSnapshot cannot swap the graph out from under the expansion.
Result<ExpandResponse> Engine::Expand(const ExpandRequest& request) const {
  return ExpandPinned(*CurrentSnapshot(), request);
}

Result<QueryResponse> Engine::Query(const QueryRequest& request) const {
  return QueryPinned(*CurrentSnapshot(), request);
}

// Batches pin once: every request in a batch runs on the same graph
// epoch, so its results are mutually consistent even when a republish
// lands mid-batch.  Budgets stay per request — each item installs (and
// on exit removes) its own exec context, so one expired deadline never
// bleeds into its batch neighbors.
Result<std::vector<ExpandResponse>> Engine::ExpandBatch(
    const std::vector<ExpandRequest>& requests) const {
  std::shared_ptr<const GraphSnapshot> snapshot = CurrentSnapshot();
  return RunBatch<ExpandResponse>(
      requests, "ExpandBatch",
      [&](const ExpandRequest& request) {
        return ExpandPinned(*snapshot, request);
      });
}

Result<std::vector<QueryResponse>> Engine::QueryBatch(
    const std::vector<QueryRequest>& requests) const {
  std::shared_ptr<const GraphSnapshot> snapshot = CurrentSnapshot();
  return RunBatch<QueryResponse>(
      requests, "QueryBatch",
      [&](const QueryRequest& request) {
        return QueryPinned(*snapshot, request);
      });
}

}  // namespace wqe::api
