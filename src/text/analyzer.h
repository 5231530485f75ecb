#pragma once

/// \file analyzer.h
/// \brief The full text-analysis pipeline: tokenize → stop → stem.
///
/// Documents at index time and queries at search time must pass through the
/// same analysis, otherwise term vocabularies diverge; `ir::SearchEngine`
/// owns one analyzer and applies it to both.  There is one analysis: every
/// analyzer removes the default English stopwords (`StopwordSet::Default`)
/// and Porter-stems what is left, as the paper's INDRI setup does.
///
/// The pipeline is two steps, each defined once: the tokenizer's span
/// scan (`Tokenizer::ForEachSpan`) and `AnalyzeToken`, which turns one
/// raw token into its term or stops it.  `Analyze` is the two in
/// sequence.  `ir::FrozenIndex::Build` runs the same two, remembering
/// `AnalyzeToken`'s answer per raw spelling for the length of one build;
/// the analyzer itself keeps no state, so one analyzer serves every
/// thread.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace wqe::text {

/// \brief An analyzed term: processed text plus token position and source
/// span.  Positions index the *kept* term sequence (stopwords removed and
/// positions compacted, as INDRI does with stopping enabled), so an exact
/// phrase like "bridge of sighs" matches documents containing it verbatim.
struct AnalyzedTerm {
  std::string term;
  uint32_t position = 0;
  size_t begin = 0;
  size_t end = 0;
};

/// \brief Tokenize → stopword-filter → stem pipeline.
class Analyzer {
 public:
  /// \brief Runs the full pipeline on `input`.
  std::vector<AnalyzedTerm> Analyze(std::string_view input) const;

  /// \brief Terms only, no positions.
  std::vector<std::string> AnalyzeToStrings(std::string_view input) const;

  /// \brief Analyzes one raw token, the bytes of a span that
  /// `Tokenizer::ForEachSpan` found: lowercases it and returns its Porter
  /// stem, or nullopt when the lowercased token is a stopword.
  std::optional<std::string> AnalyzeToken(std::string_view raw) const;

 private:
  PorterStemmer stemmer_;
};

}  // namespace wqe::text
