#include "ir/frozen_index.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <unordered_map>

#include "common/macros.h"

namespace wqe::ir {

namespace {

std::atomic<uint64_t> next_index_id{1};

}  // namespace

Result<FrozenIndex> FrozenIndex::Build(const DocumentStore& store,
                                       const text::Analyzer& analyzer) {
  FrozenIndex index;

  // Analysis pass: the collection as one stream of (term, position) in
  // doc order.  Terms get provisional ids by first sight; `spelling`
  // points at the map's (node-stable) keys.
  std::unordered_map<std::string, uint32_t> provisional;
  std::vector<const std::string*> spelling;
  std::vector<uint32_t> stream_terms;
  std::vector<uint32_t> stream_positions;
  index.doc_lengths_.reserve(store.size());
  for (const Document& doc : store.documents()) {
    WQE_DCHECK(doc.id == index.doc_lengths_.size());
    std::vector<text::AnalyzedTerm> terms = analyzer.Analyze(doc.text);
    if (terms.size() >= UINT32_MAX - stream_terms.size()) {
      return Status::ResourceExhausted(
          "collection exceeds 2^32 tokens at document ", doc.id);
    }
    index.doc_lengths_.push_back(static_cast<uint32_t>(terms.size()));
    for (text::AnalyzedTerm& t : terms) {
      auto [it, inserted] = provisional.try_emplace(
          std::move(t.term), static_cast<uint32_t>(spelling.size()));
      if (inserted) spelling.push_back(&it->first);
      stream_terms.push_back(it->second);
      stream_positions.push_back(t.position);
    }
  }

  // Dictionary: sort the spellings; rank is the term id.
  const size_t num_terms = spelling.size();
  std::vector<uint32_t> order(num_terms);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return *spelling[a] < *spelling[b];
  });
  size_t num_chars = 0;
  for (const std::string* s : spelling) num_chars += s->size();
  if (num_chars >= UINT32_MAX) {
    return Status::ResourceExhausted("dictionary exceeds 2^32 characters");
  }
  std::vector<TermId> rank(num_terms);
  index.term_chars_.reserve(num_chars);
  index.term_text_begin_.reserve(num_terms + 1);
  for (size_t r = 0; r < num_terms; ++r) {
    rank[order[r]] = static_cast<TermId>(r);
    index.term_text_begin_.push_back(
        static_cast<uint32_t>(index.term_chars_.size()));
    index.term_chars_ += *spelling[order[r]];
  }
  index.term_text_begin_.push_back(
      static_cast<uint32_t>(index.term_chars_.size()));
  spelling = {};
  provisional = {};

  // Counting pass: per-term document and occurrence counts size every
  // array.  The stream is rewritten to final ids on the way.
  std::vector<uint32_t> df(num_terms, 0);
  std::vector<DocId> last_doc(num_terms, kInvalidDoc);
  index.collection_tf_.assign(num_terms, 0);
  size_t at = 0;
  for (DocId doc = 0; doc < index.doc_lengths_.size(); ++doc) {
    for (const size_t end = at + index.doc_lengths_[doc]; at < end; ++at) {
      const TermId t = rank[stream_terms[at]];
      stream_terms[at] = t;
      ++index.collection_tf_[t];
      if (last_doc[t] != doc) {
        last_doc[t] = doc;
        ++df[t];
      }
    }
  }
  index.term_begin_.resize(num_terms + 1);
  std::vector<uint32_t> next_position(num_terms);
  uint32_t num_postings = 0;
  uint32_t num_positions = 0;
  for (size_t t = 0; t < num_terms; ++t) {
    index.term_begin_[t] = num_postings;
    next_position[t] = num_positions;
    num_postings += df[t];
    num_positions += index.collection_tf_[t];
  }
  index.term_begin_[num_terms] = num_postings;

  // Fill pass: each occurrence lands at its term's cursors.  Docs arrive
  // ascending and positions ascending within a doc, so every list comes
  // out sorted.
  std::vector<uint32_t> next_posting(index.term_begin_.begin(),
                                     index.term_begin_.end() - 1);
  index.posting_docs_.resize(num_postings);
  index.posting_tfs_.assign(num_postings, 0);
  index.posting_pos_begin_.resize(static_cast<size_t>(num_postings) + 1);
  index.positions_.resize(num_positions);
  std::fill(last_doc.begin(), last_doc.end(), kInvalidDoc);
  at = 0;
  for (DocId doc = 0; doc < index.doc_lengths_.size(); ++doc) {
    for (const size_t end = at + index.doc_lengths_[doc]; at < end; ++at) {
      const TermId t = stream_terms[at];
      if (last_doc[t] != doc) {
        last_doc[t] = doc;
        const uint32_t p = next_posting[t]++;
        index.posting_docs_[p] = doc;
        index.posting_pos_begin_[p] = next_position[t];
      }
      ++index.posting_tfs_[next_posting[t] - 1];
      index.positions_[next_position[t]++] = stream_positions[at];
    }
  }
  index.posting_pos_begin_[num_postings] = num_positions;
  index.id_ = next_index_id.fetch_add(1, std::memory_order_relaxed);
  return index;
}

TermId FrozenIndex::Lookup(std::string_view analyzed_term) const {
  size_t lo = 0;
  size_t hi = num_terms();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (term(static_cast<TermId>(mid)) < analyzed_term) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < num_terms() && term(static_cast<TermId>(lo)) == analyzed_term) {
    return static_cast<TermId>(lo);
  }
  return kOovTerm;
}

void FrozenIndex::PhraseMatches(std::span<const TermId> terms,
                                std::vector<DocId>* docs,
                                std::vector<uint32_t>* tfs) const {
  if (terms.empty()) return;
  if (terms.size() == 1) {
    const std::span<const DocId> d = this->docs(terms[0]);
    const std::span<const uint32_t> f = this->tfs(terms[0]);
    docs->insert(docs->end(), d.begin(), d.end());
    tfs->insert(tfs->end(), f.begin(), f.end());
    return;
  }
  // Pivot on the rarest term: every occurrence starting at s holds it
  // at s + pivot, and each other term k is a semijoin on (doc, s + k).
  const size_t n = terms.size();
  size_t pivot = 0;
  for (size_t k = 1; k < n; ++k) {
    if (df(terms[k]) < df(terms[pivot])) pivot = k;
  }
  // Per term: the posting cursor (monotone across docs), then the
  // position cursor inside the current doc's posting.
  std::vector<uint32_t> cursors(2 * n);
  uint32_t* posting = cursors.data();
  uint32_t* position = cursors.data() + n;
  for (size_t k = 0; k < n; ++k) posting[k] = term_begin_[terms[k]];

  const uint32_t pivot_end = term_begin_[terms[pivot] + 1];
  for (uint32_t p = term_begin_[terms[pivot]]; p < pivot_end; ++p) {
    const DocId doc = posting_docs_[p];
    bool in_doc = true;
    for (size_t k = 0; k < n && in_doc; ++k) {
      if (k == pivot) continue;
      const uint32_t end = term_begin_[terms[k] + 1];
      posting[k] = static_cast<uint32_t>(
          std::lower_bound(posting_docs_.begin() + posting[k],
                           posting_docs_.begin() + end, doc) -
          posting_docs_.begin());
      // Term k has no document at or after this one: nothing later can
      // match either.
      if (posting[k] == end) return;
      in_doc = posting_docs_[posting[k]] == doc;
    }
    if (!in_doc) continue;

    for (size_t k = 0; k < n; ++k) position[k] = posting_pos_begin_[posting[k]];
    uint32_t count = 0;
    bool exhausted = false;
    for (const uint32_t pos : PostingPositions(p)) {
      if (pos < pivot) continue;
      const uint64_t start = pos - pivot;
      bool match = true;
      for (size_t k = 0; k < n && match; ++k) {
        if (k == pivot) continue;
        const uint64_t want = start + k;
        const uint32_t end = posting_pos_begin_[posting[k] + 1];
        while (position[k] < end && positions_[position[k]] < want) {
          ++position[k];
        }
        // Starts only grow: once term k runs out, no later start matches.
        exhausted = position[k] == end;
        match = !exhausted && positions_[position[k]] == want;
      }
      if (match) ++count;
      if (exhausted) break;
    }
    if (count > 0) {
      docs->push_back(doc);
      tfs->push_back(count);
    }
  }
}

}  // namespace wqe::ir
