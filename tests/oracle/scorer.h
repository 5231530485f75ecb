#pragma once

/// \file scorer.h
/// \brief The reference query-likelihood evaluator: the ranking oracle.
///
/// Scores the same model as `ir::RankPrepared` (ranker.h, which holds the
/// formula and the determinism contract) straight from a query AST over
/// the map-based `InvertedIndex`: it analyzes every leaf per call, keeps
/// one doc→tf hash map per leaf and a hash set of candidates, and sorts
/// them all.  Retrieval no longer runs it; it stays, like
/// `graph::ComputeCycleMetrics` for the cycle scorer, as the slow and
/// obviously correct side of the differential tests in ir_test and
/// api_test, which require equal documents and bit-identical scores.

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "ir/query.h"
#include "ir/ranker.h"
#include "oracle/inverted_index.h"

namespace wqe::ir {

/// \brief Evaluates query ASTs against an index.
class QueryEvaluator {
 public:
  explicit QueryEvaluator(const InvertedIndex* index) : index_(index) {}

  /// \brief Scores and ranks the top `k` documents for `query`, under
  /// the same candidate rule and (score desc, doc asc) order as
  /// `RankPrepared`.
  Result<std::vector<ScoredDoc>> Evaluate(const QueryNode& query,
                                          size_t k) const;

 private:
  /// Analyzed leaf: either one term or a phrase, plus its per-document
  /// match counts and collection statistics.
  struct Leaf {
    std::vector<std::string> terms;             ///< analyzed
    std::unordered_map<DocId, uint32_t> tf;     ///< per-doc occurrences
    double collection_prob = 0.0;               ///< P(leaf|C), smoothed
  };

  Status CollectLeaves(const QueryNode& node, std::vector<Leaf>* leaves) const;
  double LeafLogBelief(const Leaf& leaf, DocId doc) const;

  const InvertedIndex* index_;
};

}  // namespace wqe::ir
