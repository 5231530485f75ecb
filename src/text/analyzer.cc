#include "text/analyzer.h"

namespace wqe::text {

std::vector<AnalyzedTerm> Analyzer::Analyze(std::string_view input) const {
  std::vector<Token> tokens = tokenizer_.Tokenize(input);
  const StopwordSet& stopwords = StopwordSet::Default();
  std::vector<AnalyzedTerm> out;
  out.reserve(tokens.size());
  for (Token& tok : tokens) {
    if (stopwords.Contains(tok.text)) continue;
    AnalyzedTerm term;
    term.term = ProcessToken(tok.text);
    // Positions are compacted over the kept terms (INDRI-style stopping):
    // "bridge of sighs" indexes as bridge@0 sighs@1, so the title used as
    // an exact phrase matches documents containing it verbatim.
    term.position = static_cast<uint32_t>(out.size());
    term.begin = tok.begin;
    term.end = tok.end;
    out.push_back(std::move(term));
  }
  return out;
}

std::vector<std::string> Analyzer::AnalyzeToStrings(
    std::string_view input) const {
  std::vector<AnalyzedTerm> terms = Analyze(input);
  std::vector<std::string> out;
  out.reserve(terms.size());
  for (auto& t : terms) out.push_back(std::move(t.term));
  return out;
}

std::string Analyzer::ProcessToken(std::string_view token) const {
  return stemmer_.Stem(token);
}

}  // namespace wqe::text
