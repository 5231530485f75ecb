#include "api/engine.h"

#include <utility>

#include "common/deadline.h"
#include "common/macros.h"
#include "obs/trace.h"

namespace wqe::api {

namespace {

/// The strategy a request that names none runs: the paper's.
constexpr std::string_view kDefaultStrategy = "cycle";

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

/// Retrieval needs the finalized index; expansions check before
/// expanding, so an unindexed engine fails without doing the work.
Status CheckIndexed(const ir::SearchEngine& search) {
  if (search.finalized()) return Status::OK();
  return Status::InvalidArgument(
      "Query before FinalizeIndex(): the corpus is not indexed yet");
}

}  // namespace

Result<std::unique_ptr<Engine>> Engine::Build(wiki::KnowledgeBase kb,
                                              EngineOptions options) {
  if (options.default_top_k == 0) {
    return Status::InvalidArgument("default_top_k must be > 0");
  }
  std::unique_ptr<Engine> engine(new Engine());
  engine->options_ = options;
  engine->search_ = std::make_unique<ir::SearchEngine>();
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
  std::shared_ptr<GraphSnapshot> snapshot = engine->MakeSnapshot(std::move(kb));
  snapshot->generation = 1;
  {
    common::MutexLock lock(engine->snapshot_mu_);
    engine->snapshot_ = std::move(snapshot);
  }
  engine->counters_.snapshot_generation->Set(1.0);
  return engine;
}

std::shared_ptr<GraphSnapshot> Engine::MakeSnapshot(
    wiki::KnowledgeBase kb) const {
  auto snapshot = std::make_shared<GraphSnapshot>();
  snapshot->kb = std::move(kb);
  snapshot->kb.Freeze();
  // Built after the KB lands at its final heap address: the linker keeps
  // a pointer to it.
  snapshot->linker = std::make_unique<linking::EntityLinker>(&snapshot->kb);
  return snapshot;
}

Status Engine::PublishSnapshot(wiki::KnowledgeBase kb) {
  obs::Span span("snapshot-publish");
  std::shared_ptr<GraphSnapshot> snapshot = MakeSnapshot(std::move(kb));
  // The mutex publishes the fully built KB/linker to every reader that
  // pins after this point.  The generation is stamped here, not before
  // the build: concurrent publishers swap in the order their builds
  // finish, and each swap must still move the generation forward.  Old
  // epochs retire when the last in-flight request that pinned them
  // drains — publishing never waits for them.  The replaced pointer
  // leaves the lock in `retired`: when it is the last pin, the old
  // epoch's teardown runs here, after the unlock, so no reader waits
  // on it.
  std::shared_ptr<const GraphSnapshot> retired;
  {
    common::MutexLock lock(snapshot_mu_);
    snapshot->generation = snapshot_->generation + 1;
    counters_.snapshot_generation->Set(
        static_cast<double>(snapshot->generation));
    retired = std::exchange(snapshot_, std::move(snapshot));
  }
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

std::string Engine::ResolveStrategy(std::string_view expander) const {
  return registry_.Resolve(expander.empty() ? kDefaultStrategy : expander);
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
  WQE_RETURN_NOT_OK(CheckIndexed(*search_));
  ExpandResponse response;
  {
    obs::Span span("expansion", ExpandHistogram());
    WQE_ASSIGN_OR_RETURN(expansion::ExpandedQuery expanded,
                         expander.Expand(keywords));
    response.expander = std::string(resolved_name);
    response.query_articles = std::move(expanded.query_articles);
    response.feature_articles = std::move(expanded.feature_articles);
    response.titles = std::move(expanded.titles);
    response.query = std::move(expanded.query);
  }
  // Prepared once per expansion, under its own span so `expansion` and
  // `search` time only their own work: every retrieval of this response,
  // cache hits included, scores from the term ids.
  {
    obs::Span span("query-prepare", PrepareHistogram());
    WQE_ASSIGN_OR_RETURN(response.prepared, search_->Prepare(response.query));
  }
  counters_.expand_calls->Inc();
  return response;
}

Result<QueryResponse> Engine::QueryWithExpansion(ExpandResponse expansion,
                                                 size_t top_k) const {
  WQE_RETURN_NOT_OK(CheckIndexed(*search_));
  QueryResponse response;
  response.expansion = std::move(expansion);
  size_t k = top_k == 0 ? options_.default_top_k : top_k;
  {
    obs::Span span("search", SearchHistogram());
    WQE_ASSIGN_OR_RETURN(response.docs,
                         search_->Search(response.expansion.prepared, k));
  }
  counters_.searches->Inc();
  return response;
}

Result<QueryResponse> Engine::QueryPinned(const GraphSnapshot& snapshot,
                                          const QueryRequest& request) const {
  common::ScopedDeadline deadline_scope(
      common::RequestDeadline(request.deadline_ms));
  const std::string name = ResolveStrategy(request.expander);
  WQE_ASSIGN_OR_RETURN(std::unique_ptr<expansion::Expander> expander,
                       BuildExpander(snapshot, name, request.overrides));
  WQE_ASSIGN_OR_RETURN(ExpandResponse expansion,
                       ExpandWith(*expander, name, request.keywords));
  return QueryWithExpansion(std::move(expansion), request.top_k);
}

// Singles pin the graph epoch for the whole request: a concurrent
// PublishSnapshot cannot swap the graph out from under the expansion.
Result<QueryResponse> Engine::Query(const QueryRequest& request) const {
  return QueryPinned(*CurrentSnapshot(), request);
}

// A batch pins once: every request in it runs on the same graph epoch,
// so its results are mutually consistent even when a republish lands
// mid-batch.  Budgets stay per request — each item installs (and on exit
// removes) its own deadline, so one expired deadline never bleeds into
// its batch neighbors.
Result<std::vector<QueryResponse>> Engine::QueryBatch(
    const std::vector<QueryRequest>& requests) const {
  std::shared_ptr<const GraphSnapshot> snapshot = CurrentSnapshot();
  std::vector<QueryResponse> responses;
  responses.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    Result<QueryResponse> response = QueryPinned(*snapshot, requests[i]);
    if (!response.ok()) {
      return response.status().WithContext("QueryBatch request #" +
                                           std::to_string(i));
    }
    responses.push_back(std::move(*response));
  }
  return responses;
}

}  // namespace wqe::api
