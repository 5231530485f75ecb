#include "inputs.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "clef/track_generator.h"
#include "common/macros.h"
#include "snapshot/writer.h"
#include "wiki/synthetic.h"

namespace servebench {

namespace {

/// Independent streams of the one seed, one per use.
enum StreamTag : uint64_t {
  kWikiStream = 1,
  kTrackStream = 2,
  kHotSetStream = 3,
  kRequestStream = 4,
};

uint64_t DerivedSeed(uint64_t seed, StreamTag tag) {
  return wqe::Rng(seed, tag).NextU64();
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w :
       {Workload::kColdMiss, Workload::kHotHits, Workload::kRepublish}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kColdMiss:
      return "cold_miss";
    case Workload::kHotHits:
      return "hot_hits";
    case Workload::kRepublish:
      return "republish";
  }
  return "?";
}

wqe::Result<Inputs> MakeInputs(uint64_t seed, const InputSizes& sizes,
                               const std::string& snapshot_path) {
  wqe::wiki::SyntheticWikipediaOptions wiki_options;
  wiki_options.seed = DerivedSeed(seed, kWikiStream);
  wiki_options.num_domains = sizes.domains;
  WQE_ASSIGN_OR_RETURN(wqe::wiki::SyntheticWikipedia wiki,
                       wqe::wiki::GenerateSyntheticWikipedia(wiki_options));

  wqe::clef::TrackGeneratorOptions track_options;
  track_options.seed = DerivedSeed(seed, kTrackStream);
  track_options.num_topics = sizes.topics;
  WQE_ASSIGN_OR_RETURN(wqe::clef::Track track,
                       wqe::clef::GenerateTrack(wiki, track_options));

  wiki.kb.Freeze();
  WQE_RETURN_NOT_OK(wqe::snapshot::WriteSnapshot(wiki.kb, snapshot_path));

  Inputs inputs;
  inputs.snapshot_path = snapshot_path;
  inputs.snapshot_bytes = std::filesystem::file_size(snapshot_path);
  inputs.documents = std::move(track.documents);
  inputs.keywords.reserve(track.topics.size());
  for (wqe::clef::Topic& topic : track.topics) {
    inputs.keywords.push_back(std::move(topic.keywords));
  }
  return inputs;
}

RequestStream::RequestStream(Workload workload, uint64_t seed,
                             uint32_t num_topics)
    : workload_(workload), rng_(DerivedSeed(seed, kRequestStream)) {
  WQE_CHECK(num_topics > 0);
  if (workload == Workload::kColdMiss) {
    distinct_.resize(num_topics);
    for (uint32_t t = 0; t < num_topics; ++t) distinct_[t] = t;
    return;
  }
  wqe::Rng hot_rng(DerivedSeed(seed, kHotSetStream));
  hot_by_rank_ = hot_rng.SampleWithoutReplacement(
      num_topics, std::min(kHotSetSize, num_topics));
  distinct_ = hot_by_rank_;
  std::sort(distinct_.begin(), distinct_.end());
  double total = 0.0;
  for (size_t rank = 0; rank < hot_by_rank_.size(); ++rank) {
    total += 1.0 / static_cast<double>(rank + 1);
    cumulative_.push_back(total);
  }
}

uint32_t RequestStream::Next() {
  if (workload_ == Workload::kColdMiss) {
    if (pass_pos_ == pass_.size()) {
      pass_ = distinct_;
      rng_.Shuffle(&pass_);
      pass_pos_ = 0;
    }
    return pass_[pass_pos_++];
  }
  const double draw = rng_.NextDouble() * cumulative_.back();
  const size_t rank = static_cast<size_t>(
      std::upper_bound(cumulative_.begin(), cumulative_.end(), draw) -
      cumulative_.begin());
  return hot_by_rank_[std::min(rank, hot_by_rank_.size() - 1)];
}

}  // namespace servebench
