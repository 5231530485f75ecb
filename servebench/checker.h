#pragma once

/// \file checker.h
/// \brief Output checks: a request's response must not depend on how it
/// was served.
///
/// For one keyword string, a cache hit, a miss, either worker, and any
/// snapshot epoch (every republish loads the same file) must all produce
/// the same ranked documents and the same expansion titles.  The first
/// response seen for a keyword string becomes its reference; every later
/// one is compared with it, and a seeded sample of references is finally
/// compared with a sequential, uncached `api::Engine::Query`.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/engine.h"

namespace servebench {

class ResponseChecker {
 public:
  /// \brief `keywords[t]` is the keyword string of topic t; topics with
  /// equal strings share one reference.
  explicit ResponseChecker(const std::vector<std::string>& keywords);

  /// \brief Records the first response for `topic`'s keyword string, and
  /// compares every later one with it.  False on a mismatch.
  bool Check(uint32_t topic, const wqe::api::QueryResponse& response);

  /// \brief Re-runs up to `sample` recorded keyword strings (a seeded
  /// choice) through `engine.Query` and compares the results with the
  /// references.  Returns the number of mismatches plus failed queries.
  size_t CheckAgainstEngine(const wqe::api::Engine& engine, uint64_t seed,
                            size_t sample);

  /// \brief Mismatches seen by `Check` so far.
  size_t mismatches() const { return mismatches_; }

 private:
  struct Reference {
    uint32_t topic = 0;
    std::vector<wqe::ir::ScoredDoc> docs;
    std::vector<std::string> titles;
  };

  bool Matches(const Reference& reference,
               const wqe::api::QueryResponse& response) const;

  const std::vector<std::string>* keywords_;
  std::vector<uint32_t> key_of_topic_;
  std::vector<std::optional<Reference>> references_;  ///< by key
  size_t mismatches_ = 0;
};

}  // namespace servebench
