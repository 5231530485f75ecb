#include "text/analyzer.h"

#include "common/string_util.h"

namespace wqe::text {

std::vector<AnalyzedTerm> Analyzer::Analyze(std::string_view input) const {
  std::vector<AnalyzedTerm> out;
  Tokenizer::ForEachSpan(input, [&](size_t begin, size_t end) {
    std::optional<std::string> term =
        AnalyzeToken(input.substr(begin, end - begin));
    if (!term) return;
    // Positions are compacted over the kept terms (INDRI-style stopping):
    // "bridge of sighs" indexes as bridge@0 sighs@1, so the title used as
    // an exact phrase matches documents containing it verbatim.
    out.push_back(AnalyzedTerm{std::move(*term),
                               static_cast<uint32_t>(out.size()), begin, end});
  });
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

std::optional<std::string> Analyzer::AnalyzeToken(std::string_view raw) const {
  const std::string lower = ToLower(raw);
  if (StopwordSet::Default().Contains(lower)) return std::nullopt;
  return stemmer_.Stem(lower);
}

}  // namespace wqe::text
