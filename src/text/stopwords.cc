#include "text/stopwords.h"

#include <string>

namespace wqe::text {

StopwordSet::StopwordSet(std::initializer_list<std::string_view> words) {
  for (std::string_view w : words) words_.emplace(w);
}

bool StopwordSet::Contains(std::string_view word) const {
  return words_.count(std::string(word)) > 0;
}

const StopwordSet& StopwordSet::Default() {
  static const StopwordSet* kDefault = new StopwordSet{
      "a",       "about",   "above",  "after",   "again",   "against",
      "all",     "am",      "an",     "and",     "any",     "are",
      "as",      "at",      "be",     "because", "been",    "before",
      "being",   "below",   "between","both",    "but",     "by",
      "can",     "cannot",  "could",  "did",     "do",      "does",
      "doing",   "down",    "during", "each",    "few",     "for",
      "from",    "further", "had",    "has",     "have",    "having",
      "he",      "her",     "here",   "hers",    "herself", "him",
      "himself", "his",     "how",    "i",       "if",      "in",
      "into",    "is",      "it",     "its",     "itself",  "me",
      "more",    "most",    "my",     "myself",  "no",      "nor",
      "not",     "of",      "off",    "on",      "once",    "only",
      "or",      "other",   "ought",  "our",     "ours",    "ourselves",
      "out",     "over",    "own",    "same",    "she",     "should",
      "so",      "some",    "such",   "than",    "that",    "the",
      "their",   "theirs",  "them",   "themselves", "then", "there",
      "these",   "they",    "this",   "those",   "through", "to",
      "too",     "under",   "until",  "up",      "very",    "was",
      "we",      "were",    "what",   "when",    "where",   "which",
      "while",   "who",     "whom",   "why",     "with",    "would",
      "you",     "your",    "yours",  "yourself","yourselves",
  };
  return *kDefault;
}

}  // namespace wqe::text
