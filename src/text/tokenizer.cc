#include "text/tokenizer.h"

#include "common/string_util.h"

namespace wqe::text {

std::vector<Token> Tokenizer::Tokenize(std::string_view input) const {
  std::vector<Token> out;
  ForEachSpan(input, [&](size_t begin, size_t end) {
    out.push_back(Token{ToLower(input.substr(begin, end - begin)), begin, end});
  });
  return out;
}

std::vector<std::string> Tokenizer::TokenizeToStrings(
    std::string_view input) const {
  std::vector<Token> toks = Tokenize(input);
  std::vector<std::string> out;
  out.reserve(toks.size());
  for (auto& t : toks) out.push_back(std::move(t.text));
  return out;
}

}  // namespace wqe::text
