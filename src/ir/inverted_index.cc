#include "ir/inverted_index.h"

#include <algorithm>

#include "common/macros.h"

namespace wqe::ir {

Status InvertedIndex::Add(DocId doc, std::string_view doc_text) {
  if (doc != doc_lengths_.size()) {
    return Status::InvalidArgument("documents must be added in id order: got ",
                                   doc, ", expected ", doc_lengths_.size());
  }
  std::vector<text::AnalyzedTerm> terms = analyzer_->Analyze(doc_text);
  doc_lengths_.push_back(static_cast<uint32_t>(terms.size()));
  total_tokens_ += terms.size();
  for (const text::AnalyzedTerm& t : terms) {
    PostingsList& list = postings_[t.term];
    if (list.postings.empty() || list.postings.back().doc != doc) {
      list.postings.push_back(Posting{doc, {}});
    }
    list.postings.back().positions.push_back(t.position);
    ++list.collection_tf;
  }
  return Status::OK();
}

Status InvertedIndex::AddAll(const DocumentStore& store) {
  for (const Document& doc : store.documents()) {
    WQE_RETURN_NOT_OK(Add(doc.id, doc.text));
  }
  return Status::OK();
}

const PostingsList* InvertedIndex::Find(std::string_view analyzed_term) const {
  auto it = postings_.find(std::string(analyzed_term));
  return it == postings_.end() ? nullptr : &it->second;
}

namespace {

/// Counts positions in `next` that are exactly one past a position in
/// `current`; returns the surviving positions (for chained extension).
std::vector<uint32_t> AdjacentPositions(const std::vector<uint32_t>& current,
                                        const std::vector<uint32_t>& next) {
  std::vector<uint32_t> out;
  size_t i = 0, j = 0;
  while (i < current.size() && j < next.size()) {
    uint32_t want = current[i] + 1;
    if (next[j] == want) {
      out.push_back(next[j]);
      ++i;
      ++j;
    } else if (next[j] < want) {
      ++j;
    } else {
      ++i;
    }
  }
  return out;
}

}  // namespace

std::vector<Posting> InvertedIndex::PhrasePostings(
    const std::vector<std::string>& terms) const {
  std::vector<Posting> out;
  if (terms.empty()) return out;
  const PostingsList* first = Find(terms[0]);
  if (first == nullptr) return out;
  if (terms.size() == 1) return first->postings;

  for (const Posting& p : first->postings) {
    std::vector<uint32_t> current = p.positions;
    bool alive = true;
    for (size_t k = 1; k < terms.size(); ++k) {
      const PostingsList* list = Find(terms[k]);
      if (list == nullptr) return {};
      auto pit = std::lower_bound(
          list->postings.begin(), list->postings.end(), p.doc,
          [](const Posting& q, DocId d) { return q.doc < d; });
      if (pit == list->postings.end() || pit->doc != p.doc) {
        alive = false;
        break;
      }
      current = AdjacentPositions(current, pit->positions);
      if (current.empty()) {
        alive = false;
        break;
      }
    }
    if (alive && !current.empty()) {
      out.push_back(Posting{p.doc, std::move(current)});
    }
  }
  return out;
}

}  // namespace wqe::ir
