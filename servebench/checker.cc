#include "checker.h"

#include <algorithm>

#include "common/rng.h"

namespace servebench {

ResponseChecker::ResponseChecker(const std::vector<std::string>& keywords)
    : keywords_(&keywords), key_of_topic_(keywords.size()) {
  std::unordered_map<std::string, uint32_t> key_of_string;
  for (size_t t = 0; t < keywords.size(); ++t) {
    auto [it, inserted] = key_of_string.try_emplace(
        keywords[t], static_cast<uint32_t>(key_of_string.size()));
    key_of_topic_[t] = it->second;
  }
  references_.resize(key_of_string.size());
}

bool ResponseChecker::Matches(const Reference& reference,
                              const wqe::api::QueryResponse& response) const {
  return response.docs == reference.docs &&
         response.expansion.titles == reference.titles;
}

bool ResponseChecker::Check(uint32_t topic,
                            const wqe::api::QueryResponse& response) {
  std::optional<Reference>& reference = references_[key_of_topic_[topic]];
  if (!reference.has_value()) {
    reference = Reference{topic, response.docs, response.expansion.titles};
    return true;
  }
  if (Matches(*reference, response)) return true;
  ++mismatches_;
  return false;
}

size_t ResponseChecker::CheckAgainstEngine(const wqe::api::Engine& engine,
                                           uint64_t seed, size_t sample) {
  std::vector<const Reference*> recorded;
  for (const std::optional<Reference>& reference : references_) {
    if (reference.has_value()) recorded.push_back(&*reference);
  }
  wqe::Rng rng(seed, /*stream=*/5);
  rng.Shuffle(&recorded);
  recorded.resize(std::min(recorded.size(), sample));
  size_t bad = 0;
  for (const Reference* reference : recorded) {
    wqe::api::QueryRequest request;
    request.keywords = (*keywords_)[reference->topic];
    wqe::Result<wqe::api::QueryResponse> response = engine.Query(request);
    if (!response.ok() || !Matches(*reference, *response)) ++bad;
  }
  return bad;
}

}  // namespace servebench
