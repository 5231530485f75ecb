#include "ir/ranker.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace wqe::ir {

namespace {

/// Work volume behind one ranking, one observation each per query.
obs::Histogram* LeavesHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram("wqe.ir.leaves");
  return histogram;
}
obs::Histogram* CandidatesHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram("wqe.ir.candidates");
  return histogram;
}

void PrepareNode(const FrozenIndex& index, const text::Analyzer& analyzer,
                 const QueryNode& node, PreparedQuery* out) {
  if (node.kind == QueryNode::Kind::kCombine) {
    for (const QueryNode& child : node.children) {
      PrepareNode(index, analyzer, child, out);
    }
    return;
  }
  // Queries pass through the same pipeline as documents, word by word;
  // stopwords inside phrases drop out as they did at indexing.
  const size_t begin = out->terms.size();
  auto add_word = [&](const std::string& word) {
    for (const text::AnalyzedTerm& t : analyzer.Analyze(word)) {
      out->terms.push_back(index.Lookup(t.term));
    }
  };
  if (node.kind == QueryNode::Kind::kTerm) {
    add_word(node.term);
  } else {
    for (const std::string& word : node.phrase) add_word(word);
  }
  // A pure-stopword leaf ("the") matches nothing; drop it.
  if (out->terms.size() > begin) {
    out->leaf_end.push_back(static_cast<uint32_t>(out->terms.size()));
  }
}

/// A leaf's matches, `[begin, end)` of the per-query match arrays, and
/// its smoothed collection probability.
struct LeafMatches {
  size_t begin = 0;
  size_t end = 0;
  double collection_prob = 0.0;
};

double LogBelief(uint32_t tf, uint32_t doc_length, double collection_prob) {
  const double p =
      (static_cast<double>(tf) + kDirichletMu * collection_prob) /
      (static_cast<double>(doc_length) + kDirichletMu);
  return std::log(std::max(p, 1e-300));
}

}  // namespace

PreparedQuery PrepareQuery(const FrozenIndex& index,
                           const text::Analyzer& analyzer,
                           const QueryNode& query) {
  PreparedQuery out;
  out.index_id = index.id();
  PrepareNode(index, analyzer, query, &out);
  return out;
}

Result<std::vector<ScoredDoc>> RankPrepared(const FrozenIndex& index,
                                            const PreparedQuery& query,
                                            size_t k) {
  if (query.index_id == 0 || query.index_id != index.id()) {
    return Status::InvalidArgument(
        "query was not prepared against this index");
  }
  const size_t num_leaves = query.num_leaves();
  if (num_leaves == 0) {
    return Status::InvalidArgument(
        "query has no scoreable leaves (all stopwords or empty)");
  }
  // The fields are public: check the shape before reading through it.
  for (size_t i = 0; i < num_leaves; ++i) {
    if (query.leaf_end[i] <= (i == 0 ? 0 : query.leaf_end[i - 1])) {
      return Status::InvalidArgument("prepared query has an empty leaf");
    }
  }
  if (query.leaf_end.back() != query.terms.size()) {
    return Status::InvalidArgument("prepared query leaves and terms disagree");
  }
  for (const TermId t : query.terms) {
    if (t != kOovTerm && t >= index.num_terms()) {
      return Status::InvalidArgument("prepared query term ", t,
                                     " is not in the index");
    }
  }

  // Each leaf's matching documents, ascending, with their tf.  A leaf
  // with an out-of-vocabulary term matches nothing but still scores its
  // background belief in every candidate.
  std::vector<DocId> match_docs;
  std::vector<uint32_t> match_tfs;
  std::vector<LeafMatches> leaves(num_leaves);
  const double total = static_cast<double>(index.total_tokens());
  for (size_t i = 0; i < num_leaves; ++i) {
    const std::span<const TermId> terms = query.leaf(i);
    LeafMatches& leaf = leaves[i];
    leaf.begin = match_docs.size();
    uint64_t ctf = 0;
    if (std::find(terms.begin(), terms.end(), kOovTerm) == terms.end()) {
      index.PhraseMatches(terms, &match_docs, &match_tfs);
      for (size_t m = leaf.begin; m < match_tfs.size(); ++m) {
        ctf += match_tfs[m];
      }
    }
    leaf.end = match_docs.size();
    // Smoothed collection probability; the 0.5 pseudo-count keeps OOV and
    // zero-occurrence phrases finite (INDRI treats these similarly).
    leaf.collection_prob =
        (static_cast<double>(ctf) + 0.5) / std::max(total + 1.0, 1.0);
  }

  // Candidates: documents matching at least one leaf.
  std::vector<DocId> candidates = match_docs;
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  LeavesHistogram()->Record(static_cast<double>(num_leaves));
  CandidatesHistogram()->Record(static_cast<double>(candidates.size()));

  // Leaf-major accumulation keeps every candidate's sum in leaf order.
  // Each leaf's matches are a sorted subset of the candidates, so one
  // forward cursor finds a candidate's tf.
  std::vector<ScoredDoc> scored(candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    scored[c].doc = candidates[c];
  }
  for (const LeafMatches& leaf : leaves) {
    size_t m = leaf.begin;
    for (ScoredDoc& candidate : scored) {
      uint32_t tf = 0;
      if (m < leaf.end && match_docs[m] == candidate.doc) tf = match_tfs[m++];
      candidate.score += LogBelief(tf, index.doc_length(candidate.doc),
                                   leaf.collection_prob);
    }
  }
  for (ScoredDoc& candidate : scored) {
    candidate.score /= static_cast<double>(num_leaves);
  }
  const size_t top = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + top, scored.end(),
                    [](const ScoredDoc& a, const ScoredDoc& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.doc < b.doc;
                    });
  scored.resize(top);
  return scored;
}

}  // namespace wqe::ir
