#pragma once

/// \file ranker.h
/// \brief Query-likelihood ranking over the frozen index.
///
/// INDRI's retrieval model (the paper's §2.2 retrieval step): a
/// document's belief for one leaf of the query — a term or an exact
/// phrase `#1(...)` — is
///
///   P(leaf|d) = (tf(leaf,d) + μ·P(leaf|C)) / (|d| + μ)
///
/// and `#combine` averages the leaves' log-beliefs.  A phrase's tf and
/// collection frequency are its occurrence counts.
///
/// Ranking is split in two.  `PrepareQuery` analyzes every leaf once and
/// resolves it to term ids against one `FrozenIndex`.  `api::Engine` does
/// that when it computes an expansion, and the `PreparedQuery` travels in
/// the cached response, so a serving-cache hit neither stems nor hashes
/// a string.  `RankPrepared` then scores with dense state: each leaf's
/// matches come from flat postings (phrases by intersecting flat position
/// lists), the candidates are a sorted, deduplicated doc-id vector, and
/// the top k come from `partial_sort`.
///
/// `ir::QueryEvaluator` (scorer.h) computes the same ranking from the
/// map-based `InvertedIndex` and is kept as the test oracle: ir_test
/// requires equal documents and bit-identical scores.

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "ir/frozen_index.h"
#include "ir/query.h"
#include "text/analyzer.h"

namespace wqe::ir {

/// \brief One ranked result.
struct ScoredDoc {
  DocId doc = kInvalidDoc;
  double score = 0.0;

  bool operator==(const ScoredDoc& other) const = default;
};

/// \brief Scoring parameters.
struct ScorerOptions {
  /// Dirichlet μ. The classic default is 2500; the ImageCLEF-style
  /// metadata documents are short (tens of tokens), so the engine default
  /// is smaller.
  double mu = 300.0;
};

/// \brief A query's leaves, analyzed and resolved to term ids.
///
/// Leaves are in query order; pure-stopword leaves are dropped, as they
/// match nothing.  Leaf `i` is `terms[leaf_end[i - 1], leaf_end[i])` (from
/// 0 for the first): one id for a term, several for a phrase, with
/// `kOovTerm` marking a term the index does not contain.
struct PreparedQuery {
  /// `FrozenIndex::id()` of the index the ids belong to; 0 when the query
  /// was never prepared.  Ids are only read against that index.
  uint64_t index_id = 0;
  std::vector<uint32_t> leaf_end;
  std::vector<TermId> terms;

  size_t num_leaves() const { return leaf_end.size(); }
  std::span<const TermId> leaf(size_t i) const {
    const uint32_t begin = i == 0 ? 0 : leaf_end[i - 1];
    return std::span<const TermId>(terms).subspan(begin, leaf_end[i] - begin);
  }
};

/// \brief Analyzes each leaf of `query` with `analyzer` (the one `index`
/// was built with) and resolves its terms against `index`.
PreparedQuery PrepareQuery(const FrozenIndex& index,
                           const text::Analyzer& analyzer,
                           const QueryNode& query);

/// \brief Scores and ranks the top `k` documents for `query`.
///
/// Only documents matching at least one leaf are ranked (unmatched
/// documents would all tie on pure background probability).  Fails when
/// `query` was prepared against another index, has no leaves, or is not
/// shaped as `PrepareQuery` shapes it.
/// Records the leaf and candidate counts (`wqe.ir.leaves`,
/// `wqe.ir.candidates`) once per ranked query.
///
/// Determinism contract: each candidate's log-beliefs are summed in leaf
/// order, and equal scores tie-break by ascending DocId, so the ranking
/// is a pure function of (index, query, k), bit for bit, regardless of
/// internal iteration order or the calling thread.  The serving layer
/// (`serve::Server`) relies on this to guarantee parallel execution
/// returns bit-identical rankings to sequential execution — do not
/// weaken it (regression-tested in ir_test.cc).
Result<std::vector<ScoredDoc>> RankPrepared(const FrozenIndex& index,
                                            const PreparedQuery& query,
                                            size_t k,
                                            const ScorerOptions& options);

}  // namespace wqe::ir
