#pragma once

/// \file entity_linker.h
/// \brief Entity linking against Wikipedia titles (paper §2.1).
///
/// Implements the paper's L(·) function: "identifying the set of the
/// largest substrings in the input that match the title of an article in
/// Wikipedia".  Matching is greedy left-to-right, longest-window-first.
/// Titles of redirect articles match too and resolve to their main
/// article.  Additionally, synonym phrases are searched: a window that
/// fails to match directly is retried with single terms replaced by their
/// synonyms, where the synonyms of a term t are the titles of the
/// redirects of the article titled t (and, symmetrically, the main title
/// when t is itself a redirect title).
///
/// The linker has no settings: windows span at most five tokens, the
/// synonym search is always on, a single-token stopword never forms a
/// mention, and the input is tokenized by the same `text::Tokenizer`
/// that indexing and query analysis use.

#include <string>
#include <string_view>
#include <vector>

#include "text/tokenizer.h"
#include "wiki/knowledge_base.h"

namespace wqe::linking {

using graph::NodeId;

/// \brief One linked mention.
struct EntityMention {
  NodeId article = graph::kInvalidNode;  ///< resolved main article
  size_t begin = 0;                      ///< byte span in the input text
  size_t end = 0;
  std::string surface;                   ///< matched surface form
  bool via_redirect = false;             ///< matched a redirect title
  bool via_synonym = false;              ///< matched a synonym phrase
};

/// \brief Greedy largest-substring entity linker.
class EntityLinker {
 public:
  explicit EntityLinker(const wiki::KnowledgeBase* kb) : kb_(kb) {}

  /// \brief All mentions in reading order (non-overlapping).
  std::vector<EntityMention> Link(std::string_view text) const;

  /// \brief The paper's L(text): deduplicated resolved main articles.
  std::vector<NodeId> LinkToArticles(std::string_view text) const;

 private:
  /// Tries to match tokens[i, i+len) directly; returns the matched node or
  /// kInvalidNode.
  NodeId MatchWindow(const std::vector<text::Token>& tokens, size_t i,
                     size_t len) const;

  /// Tries synonym-substituted variants of the window.
  NodeId MatchWindowViaSynonyms(const std::vector<text::Token>& tokens,
                                size_t i, size_t len,
                                std::string* surface) const;

  /// Collects synonym strings of a single term: views of the KB's
  /// titles, valid while the KB lives.
  std::vector<std::string_view> SynonymsOf(std::string_view term) const;

  const wiki::KnowledgeBase* kb_;
};

}  // namespace wqe::linking
