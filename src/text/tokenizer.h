#pragma once

/// \file tokenizer.h
/// \brief Word tokenization with byte offsets.
///
/// Both the retrieval engine (positional index, phrase matching) and the
/// entity linker (largest-substring title matching) need tokens *with their
/// source offsets*, so the tokenizer reports spans rather than bare strings.

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
  /// \brief Tokenizes `input`; offsets refer to `input` bytes.
  std::vector<Token> Tokenize(std::string_view input) const;

  /// \brief Convenience: tokens as plain strings (no offsets).
  std::vector<std::string> TokenizeToStrings(std::string_view input) const;
};

}  // namespace wqe::text
