#include "ir/search_engine.h"

#include "common/macros.h"

namespace wqe::ir {

SearchEngine::SearchEngine(SearchEngineOptions options)
    : options_(options), analyzer_(options.analyzer) {}

Result<DocId> SearchEngine::AddDocument(std::string_view name,
                                        std::string_view text) {
  if (finalized_) {
    return Status::InvalidArgument(
        "cannot add documents after Finalize()");
  }
  return store_.Add(name, text);
}

Status SearchEngine::Finalize() {
  if (finalized_) return Status::InvalidArgument("already finalized");
  if (store_.empty()) {
    return Status::InvalidArgument("no documents to index");
  }
  WQE_ASSIGN_OR_RETURN(index_, FrozenIndex::Build(store_, analyzer_));
  finalized_ = true;
  return Status::OK();
}

Result<PreparedQuery> SearchEngine::Prepare(const QueryNode& query) const {
  if (!finalized_) {
    return Status::InvalidArgument("engine not finalized");
  }
  return PrepareQuery(index_, analyzer_, query);
}

Result<std::vector<ScoredDoc>> SearchEngine::Search(const PreparedQuery& query,
                                                    size_t k) const {
  if (!finalized_) {
    return Status::InvalidArgument("engine not finalized");
  }
  return RankPrepared(index_, query, k, options_.scorer);
}

Result<std::vector<ScoredDoc>> SearchEngine::Search(const QueryNode& query,
                                                    size_t k) const {
  WQE_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(query));
  return Search(prepared, k);
}

Result<std::vector<ScoredDoc>> SearchEngine::SearchText(
    std::string_view query, size_t k) const {
  WQE_ASSIGN_OR_RETURN(QueryNode node, ParseQuery(query));
  return Search(node, k);
}

Result<std::vector<ScoredDoc>> SearchEngine::SearchTitles(
    const std::vector<std::string>& titles, size_t k) const {
  QueryNode node = QueryNode::CombinePhrases(titles);
  if (node.children.empty()) {
    return Status::InvalidArgument("no non-empty titles to search");
  }
  return Search(node, k);
}

}  // namespace wqe::ir
