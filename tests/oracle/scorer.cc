#include "oracle/scorer.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/macros.h"

namespace wqe::ir {

Status QueryEvaluator::CollectLeaves(const QueryNode& node,
                                     std::vector<Leaf>* leaves) const {
  const text::Analyzer& analyzer = index_->analyzer();
  switch (node.kind) {
    case QueryNode::Kind::kTerm:
    case QueryNode::Kind::kPhrase: {
      std::vector<std::string> raw =
          node.kind == QueryNode::Kind::kTerm
              ? std::vector<std::string>{node.term}
              : node.phrase;
      Leaf leaf;
      for (const std::string& word : raw) {
        // Queries pass through the same pipeline as documents; stopwords
        // inside phrases are dropped consistently with indexing.
        std::vector<std::string> analyzed = analyzer.AnalyzeToStrings(word);
        for (std::string& t : analyzed) leaf.terms.push_back(std::move(t));
      }
      if (leaf.terms.empty()) {
        // A pure-stopword leaf ("the") matches nothing; drop it silently.
        return Status::OK();
      }
      // Per-document counts + collection statistics.
      uint64_t ctf = 0;
      if (leaf.terms.size() == 1) {
        const PostingsList* list = index_->Find(leaf.terms[0]);
        if (list != nullptr) {
          ctf = list->collection_tf;
          for (const Posting& p : list->postings) {
            leaf.tf.emplace(p.doc, p.tf());
          }
        }
      } else {
        std::vector<Posting> phrase = index_->PhrasePostings(leaf.terms);
        for (const Posting& p : phrase) {
          leaf.tf.emplace(p.doc, p.tf());
          ctf += p.tf();
        }
      }
      // Smoothed collection probability; 0.5 pseudo-count keeps OOV and
      // zero-occurrence phrases finite (INDRI treats these similarly).
      double total = static_cast<double>(index_->total_tokens());
      leaf.collection_prob =
          (static_cast<double>(ctf) + 0.5) / std::max(total + 1.0, 1.0);
      leaves->push_back(std::move(leaf));
      return Status::OK();
    }
    case QueryNode::Kind::kCombine: {
      for (const QueryNode& child : node.children) {
        WQE_RETURN_NOT_OK(CollectLeaves(child, leaves));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable query node kind");
}

double QueryEvaluator::LeafLogBelief(const Leaf& leaf, DocId doc) const {
  double tf = 0.0;
  auto it = leaf.tf.find(doc);
  if (it != leaf.tf.end()) tf = static_cast<double>(it->second);
  double len = static_cast<double>(index_->doc_length(doc));
  double p = (tf + kDirichletMu * leaf.collection_prob) / (len + kDirichletMu);
  return std::log(std::max(p, 1e-300));
}

Result<std::vector<ScoredDoc>> QueryEvaluator::Evaluate(const QueryNode& query,
                                                        size_t k) const {
  std::vector<Leaf> leaves;
  WQE_RETURN_NOT_OK(CollectLeaves(query, &leaves));
  if (leaves.empty()) {
    return Status::InvalidArgument(
        "query has no scoreable leaves (all stopwords or empty)");
  }
  // Candidates: documents matching at least one leaf.
  std::unordered_set<DocId> candidates;
  for (const Leaf& leaf : leaves) {
    for (const auto& [doc, tf] : leaf.tf) {
      (void)tf;
      candidates.insert(doc);
    }
  }
  std::vector<ScoredDoc> scored;
  scored.reserve(candidates.size());
  for (DocId doc : candidates) {
    double total = 0.0;
    for (const Leaf& leaf : leaves) {
      total += LeafLogBelief(leaf, doc);
    }
    scored.push_back(
        ScoredDoc{doc, total / static_cast<double>(leaves.size())});
  }
  std::sort(scored.begin(), scored.end(),
            [](const ScoredDoc& a, const ScoredDoc& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;
            });
  if (scored.size() > k) scored.resize(k);
  return scored;
}

}  // namespace wqe::ir
