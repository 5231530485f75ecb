#pragma once

/// \file query.h
/// \brief The INDRI-subset query tree the paper's queries are built as.
///
/// The paper evaluates expansion-feature sets by writing INDRI queries
/// "based on exact phrase matching" from article titles (§2.2).
/// `CombinePhrases` builds that query from a list of titles; the tree has
/// the shape
///
///   query    := node
///   node     := term | '#1(' term+ ')' | '#combine(' node+ ')'
///
/// `#1(...)` is INDRI's ordered-window-1 operator (exact phrase);
/// `#combine(...)` averages the log-beliefs of its children.  Nothing
/// parses this syntax; `ToString` renders a tree in it for display.

#include <string>
#include <string_view>
#include <vector>

namespace wqe::ir {

/// \brief Query AST node.
struct QueryNode {
  enum class Kind {
    kTerm,     ///< single term
    kPhrase,   ///< #1(...) exact phrase
    kCombine,  ///< #combine(...)
  };

  Kind kind = Kind::kTerm;
  std::string term;                      ///< kTerm: raw (unanalyzed) term
  std::vector<std::string> phrase;       ///< kPhrase: raw terms in order
  std::vector<QueryNode> children;       ///< kCombine

  /// \brief Renders the node in INDRI syntax.
  std::string ToString() const;

  /// \name Factories
  /// @{
  static QueryNode Term(std::string_view term);
  static QueryNode Phrase(std::vector<std::string> terms);
  static QueryNode Combine(std::vector<QueryNode> children);

  /// \brief `#combine` over one child per string: the paper's query
  /// construction for a set of titles (keywords + expansion features).
  /// Each text is lowercased and split on whitespace; a single word
  /// becomes a term, more words an exact phrase.  Empty inputs are
  /// skipped.
  static QueryNode CombinePhrases(const std::vector<std::string>& texts);
  /// @}
};

}  // namespace wqe::ir
