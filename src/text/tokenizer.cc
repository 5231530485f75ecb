#include "text/tokenizer.h"

namespace wqe::text {

namespace {

bool IsWordByte(unsigned char c) {
  if (c >= 0x80) return true;  // UTF-8 continuation/lead bytes: keep
  if (c >= 'a' && c <= 'z') return true;
  if (c >= 'A' && c <= 'Z') return true;
  return c >= '0' && c <= '9';
}

char LowerAscii(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace

std::vector<Token> Tokenizer::Tokenize(std::string_view input) const {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    unsigned char c = static_cast<unsigned char>(input[i]);
    if (!IsWordByte(c)) {
      ++i;
      continue;
    }
    size_t start = i;
    std::string tok;
    while (i < n) {
      unsigned char cur = static_cast<unsigned char>(input[i]);
      if (IsWordByte(cur)) {
        tok.push_back(LowerAscii(input[i]));
        ++i;
        continue;
      }
      // Inner punctuation: keep a single '-' or '\'' when flanked by word
      // bytes on both sides.
      if ((cur == '-' || cur == '\'') && i + 1 < n &&
          IsWordByte(static_cast<unsigned char>(input[i + 1]))) {
        tok.push_back(static_cast<char>(cur));
        ++i;
        continue;
      }
      break;
    }
    out.push_back(Token{std::move(tok), start, i});
  }
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
