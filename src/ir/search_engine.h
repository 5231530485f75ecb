#pragma once

/// \file search_engine.h
/// \brief The INDRI-substitute retrieval facade.
///
/// Owns the analyzer, document store and frozen positional index, and
/// exposes the operations the paper's pipeline needs: index a collection,
/// then rank documents for a structured query.  A query can be prepared
/// once (`Prepare`) and ranked many times (`Search` on the
/// `PreparedQuery`); see ranker.h.  It has no settings: text is analyzed
/// the one way text/analyzer.h describes, and ranking smooths with
/// `kDirichletMu`.

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "ir/document_store.h"
#include "ir/frozen_index.h"
#include "ir/query.h"
#include "ir/ranker.h"
#include "text/analyzer.h"

namespace wqe::ir {

/// \brief Index + search facade.  Every const method is safe to call
/// from several threads once `Finalize` has returned.
class SearchEngine {
 public:
  /// \brief Adds a document (before `Finalize`).
  Result<DocId> AddDocument(std::string_view name, std::string_view text);

  /// \brief Builds the frozen index; call once after all documents are
  /// added.
  Status Finalize();

  /// \brief Analyzes `query`'s leaves and resolves them against this
  /// engine's index (requires `Finalize`).
  Result<PreparedQuery> Prepare(const QueryNode& query) const;

  /// \brief Ranks the top `k` documents for a query prepared by this
  /// engine; a query prepared by another engine (or never) fails.
  Result<std::vector<ScoredDoc>> Search(const PreparedQuery& query,
                                        size_t k) const;

  /// \brief `Prepare` then `Search`.
  Result<std::vector<ScoredDoc>> Search(const QueryNode& query,
                                        size_t k) const;

  /// \brief The paper's §2.2 query construction: `#combine` of exact-phrase
  /// subqueries, one per title in `titles`.
  Result<std::vector<ScoredDoc>> SearchTitles(
      const std::vector<std::string>& titles, size_t k) const;

  const DocumentStore& store() const { return store_; }
  /// \brief The frozen index (empty, with id 0, before `Finalize`).
  const FrozenIndex& index() const { return index_; }
  const text::Analyzer& analyzer() const { return analyzer_; }
  bool finalized() const { return finalized_; }

 private:
  text::Analyzer analyzer_;
  DocumentStore store_;
  FrozenIndex index_;
  bool finalized_ = false;
};

}  // namespace wqe::ir
