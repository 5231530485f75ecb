#pragma once

/// \file eval.h
/// \brief Retrieval evaluation metrics.
///
/// Centerpiece is the paper's Equation 1:
///
///   O(A, D) = (1/|R|) · Σ_{r∈R} P(A, r, D),   R = {1, 5, 10, 15}
///
/// where P(A, r, D) = |T(A,r) ∩ D| / r is top-r precision of the results
/// obtained by querying with the titles of A against expected set D.
/// These two are the only measures the paper reports, so the only ones
/// here.

#include <unordered_set>
#include <vector>

#include "ir/document_store.h"
#include "ir/ranker.h"

namespace wqe::ir {

/// \brief The paper's rank cutoffs R = {1, 5, 10, 15}.
const std::vector<size_t>& PaperRankCutoffs();

/// \brief Relevance judgments: the set D of correct documents for a query.
using RelevantSet = std::unordered_set<DocId>;

/// \brief P(A, r, D): precision of the top-r ranked results.
/// When fewer than `r` results were retrieved, the missing slots count as
/// non-relevant (denominator stays r, per the paper's definition).
double PrecisionAtR(const std::vector<ScoredDoc>& results,
                    const RelevantSet& relevant, size_t r);

/// \brief O(A, D): mean of P over the paper's cutoffs (Equation 1).
double AverageTopRPrecision(const std::vector<ScoredDoc>& results,
                            const RelevantSet& relevant);

}  // namespace wqe::ir
