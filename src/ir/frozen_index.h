#pragma once

/// \file frozen_index.h
/// \brief The frozen, flat positional index that retrieval serves from.
///
/// `SearchEngine::Finalize` compiles the collection into one of these; it
/// is immutable afterwards and shared by every searching thread.  It is
/// the IR layer's counterpart of `graph::CsrGraph`:
///
///   dictionary  every analyzed term, sorted, in one character blob plus
///               offsets; a term's rank in it is its `TermId`
///   postings    per term, offsets into parallel doc-id and tf arrays
///               (ascending doc id within a term)
///   positions   per posting, offsets into one flat positions array
///               (ascending within a posting)
///   statistics  doc lengths, per-term collection tf, total tokens
///
/// `Build` runs one analysis pass that turns the collection into a
/// term-id stream, then a counting pass that sizes every array and a fill
/// pass that writes each posting in place, in the reserve-then-write
/// style of a column store.  Nothing is allocated per posting.
///
/// The analysis pass runs the analyzer's two steps, the span scan
/// (`text::Tokenizer::ForEachSpan`) and `text::Analyzer::AnalyzeToken`,
/// behind a memo that lives only inside `Build`: raw spelling (a view
/// into the document text) → term id, or "stopped".  Only a spelling's
/// first sight is analyzed; every later token is one hash lookup, and no
/// string is made per token.  Ids are assigned as the stems are first
/// seen, so the index does not depend on the memo.
///
/// Positions are the analyzer's compacted token positions (stopwords
/// dropped): a kept term's position is its index among its document's
/// kept terms, so the fill pass derives it from the stream and no
/// position is stored during analysis.  An exact phrase is then a chain
/// of semijoins on (doc, position + 1) over these lists
/// (`PhraseMatches`).
/// The test oracle `ir::InvertedIndex` (tests/oracle/inverted_index.h)
/// computes the same statistics from a map of per-posting vectors.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "ir/document_store.h"
#include "text/analyzer.h"

namespace wqe::ir {

/// \brief Dense term identifier: the term's rank in the sorted dictionary.
using TermId = uint32_t;

/// \brief Marks an analyzed query term the collection never contains.
inline constexpr TermId kOovTerm = UINT32_MAX;

/// \brief Immutable flat positional index; see the file comment.
class FrozenIndex {
 public:
  /// \brief An empty index (no documents, `id() == 0`).
  FrozenIndex() = default;

  /// \brief Analyzes every document of `store` with `analyzer` and
  /// freezes the result.  Fails when the collection holds 2^32 or more
  /// tokens, which the 32-bit offsets cannot address.
  static Result<FrozenIndex> Build(const DocumentStore& store,
                                   const text::Analyzer& analyzer);

  /// \brief Process-unique identity of this build (never 0 once built).
  /// Prepared queries carry it, so term ids are only ever read against
  /// the dictionary that assigned them.
  uint64_t id() const { return id_; }

  /// \brief Id of an *analyzed* term; `kOovTerm` when absent.
  TermId Lookup(std::string_view analyzed_term) const;

  /// \brief The analyzed spelling of `term`.
  std::string_view term(TermId term) const {
    return std::string_view(term_chars_)
        .substr(term_text_begin_[term],
                term_text_begin_[term + 1] - term_text_begin_[term]);
  }

  size_t num_docs() const { return doc_lengths_.size(); }
  size_t num_terms() const { return collection_tf_.size(); }
  uint64_t total_tokens() const { return positions_.size(); }
  uint32_t doc_length(DocId doc) const { return doc_lengths_[doc]; }

  /// \brief Number of documents containing `term`.
  uint32_t df(TermId term) const {
    return term_begin_[term + 1] - term_begin_[term];
  }
  /// \brief Occurrences of `term` across the collection.
  uint32_t collection_tf(TermId term) const { return collection_tf_[term]; }

  /// \brief Documents containing `term`, ascending; `tfs(term)` is the
  /// parallel occurrence count.
  std::span<const DocId> docs(TermId term) const {
    return std::span<const DocId>(posting_docs_)
        .subspan(term_begin_[term], df(term));
  }
  std::span<const uint32_t> tfs(TermId term) const {
    return std::span<const uint32_t>(posting_tfs_)
        .subspan(term_begin_[term], df(term));
  }
  /// \brief Positions of `term` in the `i`-th document of `docs(term)`,
  /// ascending.
  std::span<const uint32_t> positions(TermId term, size_t i) const {
    return PostingPositions(term_begin_[term] + i);
  }

  /// \brief Appends every document containing the exact phrase `terms`
  /// (consecutive positions, in order) to `docs`, ascending, and its
  /// phrase occurrence count to `tfs`.  Every id must be in vocabulary;
  /// a single term degenerates to its postings.
  void PhraseMatches(std::span<const TermId> terms, std::vector<DocId>* docs,
                     std::vector<uint32_t>* tfs) const;

 private:
  std::span<const uint32_t> PostingPositions(size_t posting) const {
    return std::span<const uint32_t>(positions_)
        .subspan(posting_pos_begin_[posting],
                 posting_pos_begin_[posting + 1] -
                     posting_pos_begin_[posting]);
  }

  uint64_t id_ = 0;
  std::string term_chars_;                 ///< sorted terms, concatenated
  std::vector<uint32_t> term_text_begin_;  ///< V + 1 offsets into term_chars_
  std::vector<uint32_t> term_begin_;       ///< V + 1 offsets into postings
  std::vector<uint32_t> collection_tf_;    ///< V
  std::vector<DocId> posting_docs_;        ///< P, ascending per term
  std::vector<uint32_t> posting_tfs_;      ///< P
  std::vector<uint32_t> posting_pos_begin_;  ///< P + 1 offsets into positions_
  std::vector<uint32_t> positions_;        ///< one per token occurrence
  std::vector<uint32_t> doc_lengths_;      ///< D
};

}  // namespace wqe::ir
