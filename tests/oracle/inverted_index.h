#pragma once

/// \file inverted_index.h
/// \brief The map-based reference positional index: the test oracle.
///
/// Terms map to postings lists of (document, sorted positions).  Positions
/// are the compacted token positions produced by `text::Analyzer`, so
/// exact-phrase evaluation (`#1(...)`, the operator the paper's ground
/// truth relies on) respects original word adjacency.  Retrieval serves
/// from `ir::FrozenIndex`, which holds the same postings in flat arrays;
/// this builder, with one heap vector per posting, stays only as the
/// index side of the `QueryEvaluator` oracle (see scorer.h).

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ir/document_store.h"
#include "text/analyzer.h"

namespace wqe::ir {

/// \brief Postings of one term in one document.
struct Posting {
  DocId doc = kInvalidDoc;
  std::vector<uint32_t> positions;  ///< ascending

  uint32_t tf() const { return static_cast<uint32_t>(positions.size()); }
};

/// \brief Postings list plus collection statistics of a term.
struct PostingsList {
  std::vector<Posting> postings;  ///< ascending DocId
  uint64_t collection_tf = 0;     ///< total occurrences across collection
};

/// \brief The index. Build by `Add`ing analyzed documents in id order.
class InvertedIndex {
 public:
  explicit InvertedIndex(const text::Analyzer* analyzer)
      : analyzer_(analyzer) {}

  /// \brief Analyzes and indexes one document.  Documents must be added in
  /// strictly increasing id order (enforced).
  Status Add(DocId doc, std::string_view doc_text);

  /// \brief Indexes an entire store.
  Status AddAll(const DocumentStore& store);

  /// \brief Postings of an *analyzed* term; nullptr when absent.
  const PostingsList* Find(std::string_view analyzed_term) const;

  /// \brief Every indexed (analyzed) term, sorted.
  std::vector<std::string> Terms() const;

  /// \brief Length (analyzed token count) of one document.
  uint32_t doc_length(DocId doc) const { return doc_lengths_[doc]; }

  /// \brief Total analyzed tokens in the collection.
  uint64_t total_tokens() const { return total_tokens_; }

  /// \brief The analyzer used to build this index (queries must use it).
  const text::Analyzer& analyzer() const { return *analyzer_; }

  /// \brief Documents containing the exact phrase, with occurrence counts;
  /// ascending DocId. A single-term phrase degenerates to its postings.
  std::vector<Posting> PhrasePostings(
      const std::vector<std::string>& terms) const;

 private:
  const text::Analyzer* analyzer_;
  std::unordered_map<std::string, PostingsList> postings_;
  std::vector<uint32_t> doc_lengths_;
  uint64_t total_tokens_ = 0;
};

}  // namespace wqe::ir
