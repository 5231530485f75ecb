#pragma once

/// \file tokenizer.h
/// \brief Word tokenization with byte offsets.
///
/// Both the retrieval engine (positional index, phrase matching) and the
/// entity linker (largest-substring title matching) need tokens *with their
/// source offsets*, so the tokenizer reports spans rather than bare strings.
///
/// There is one definition of a token boundary, the span scan
/// `ForEachSpan`.  `Tokenize` is that scan plus lowercasing;
/// `Analyzer::Analyze` runs it and analyzes each raw span with
/// `Analyzer::AnalyzeToken`; `ir::FrozenIndex::Build` runs the same two
/// and reads each span in place, so indexing makes no string per token.

#include <string>
#include <string_view>
#include <vector>

namespace wqe::text {

/// \brief One token: lowercased text plus the byte span it came from.
struct Token {
  std::string text;    ///< lowercased token text
  size_t begin = 0;    ///< byte offset of first char in the input
  size_t end = 0;      ///< one past the last byte in the input

  bool operator==(const Token& other) const = default;
};

/// \brief Splits text into lowercase word tokens.
///
/// A token is a maximal run of alphanumeric bytes plus inner `-`/`'`
/// flanked by word bytes ("bouches-du-rhone" stays one token).
/// Digit-only tokens are kept: Wikipedia titles contain years ("1712").
/// Non-ASCII bytes are treated as letters so UTF-8 words survive intact
/// (unlowered).  Indexing, query analysis and entity linking all
/// tokenize this one way.
class Tokenizer {
 public:
  /// \brief The span scan: calls `fn(begin, end)` with the byte span
  /// `[begin, end)` of each token of `input`, in input order.  The
  /// span's bytes are the raw token, not yet lowercased.
  template <typename Fn>
  static void ForEachSpan(std::string_view input, Fn&& fn);

  /// \brief Tokenizes `input`; offsets refer to `input` bytes.
  std::vector<Token> Tokenize(std::string_view input) const;

  /// \brief Convenience: tokens as plain strings (no offsets).
  std::vector<std::string> TokenizeToStrings(std::string_view input) const;

  /// \brief True for the bytes a token is made of: ASCII letters and
  /// digits, and every non-ASCII byte.
  static bool IsWordByte(unsigned char c) {
    return c >= 0x80 || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  }
};

template <typename Fn>
void Tokenizer::ForEachSpan(std::string_view input, Fn&& fn) {
  const size_t n = input.size();
  auto word_byte_at = [&](size_t i) {
    return IsWordByte(static_cast<unsigned char>(input[i]));
  };
  size_t i = 0;
  while (i < n) {
    if (!word_byte_at(i)) {
      ++i;
      continue;
    }
    const size_t begin = i;
    while (i < n) {
      if (word_byte_at(i)) {
        ++i;
        continue;
      }
      // Inner punctuation: keep a single '-' or '\'' when flanked by word
      // bytes on both sides.
      if ((input[i] == '-' || input[i] == '\'') && i + 1 < n &&
          word_byte_at(i + 1)) {
        ++i;
        continue;
      }
      break;
    }
    fn(begin, i);
  }
}

}  // namespace wqe::text
