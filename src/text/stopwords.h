#pragma once

/// \file stopwords.h
/// \brief Standard English stopword list (INDRI/SMART-derived subset).

#include <initializer_list>
#include <string>
#include <string_view>
#include <unordered_set>

namespace wqe::text {

/// \brief Immutable stopword set.
class StopwordSet {
 public:
  /// \brief The default English list used by the retrieval engine and the
  /// entity linker (single-term stopwords never form entities on their own).
  static const StopwordSet& Default();

  /// \brief Builds a custom set.
  explicit StopwordSet(std::initializer_list<std::string_view> words);

  /// \brief True when `word` (already lowercase) is a stopword.
  bool Contains(std::string_view word) const;

  size_t size() const { return words_.size(); }

 private:
  std::unordered_set<std::string> words_;
};

}  // namespace wqe::text
