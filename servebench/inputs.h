#pragma once

/// \file inputs.h
/// \brief Seeded inputs of one benchmark run: the knowledge base (written
/// as a snapshot file), the track, and the request streams.
///
/// Everything here is a pure function of the seed, and none of it is part
/// of the measured set-up: the program under test starts from the
/// snapshot file and the track documents, as a deployment would.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "clef/track.h"
#include "common/result.h"
#include "common/rng.h"

namespace servebench {

/// \brief The three closed-loop traffic mixes (see README.md for why each
/// exists and which layer it loads).
enum class Workload { kColdMiss, kHotHits, kRepublish };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

/// \brief Input scale.  The defaults are the top of the repository's
/// synthetic scale ladder; tests use smaller values.
struct InputSizes {
  uint32_t domains = 2000;  ///< about 158k KB nodes
  uint32_t topics = 1000;   ///< about 57k track documents
};

/// \brief What a run reads: the snapshot file, the documents to index and
/// the keyword string of every topic.
struct Inputs {
  std::string snapshot_path;
  uint64_t snapshot_bytes = 0;
  std::vector<wqe::clef::TrackDocument> documents;
  std::vector<std::string> keywords;  ///< indexed by topic
};

/// \brief Generates the KB and the track for `seed`, writes the KB to
/// `snapshot_path` and keeps the track.  The generator's in-memory KB is
/// dropped before returning.
wqe::Result<Inputs> MakeInputs(uint64_t seed, const InputSizes& sizes,
                               const std::string& snapshot_path);

/// Hot-set size of `kHotHits` and `kRepublish`.
inline constexpr uint32_t kHotSetSize = 64;

/// \brief The endless, seeded sequence of topics a workload requests.
///  - `kColdMiss`: passes over every topic, each pass in a fresh shuffled
///    order;
///  - `kHotHits`, `kRepublish`: Zipf (s = 1) over a seeded hot set of
///    `kHotSetSize` topics (rank 0 most popular).
class RequestStream {
 public:
  RequestStream(Workload workload, uint64_t seed, uint32_t num_topics);

  uint32_t Next();

  /// \brief Every topic the stream can produce, ascending.
  const std::vector<uint32_t>& distinct() const { return distinct_; }

 private:
  Workload workload_;
  wqe::Rng rng_;
  std::vector<uint32_t> distinct_;
  /// kColdMiss: the current pass and the position in it.
  std::vector<uint32_t> pass_;
  size_t pass_pos_ = 0;
  /// Hot mixes: hot topics by popularity rank, and the cumulative Zipf
  /// weights of those ranks.
  std::vector<uint32_t> hot_by_rank_;
  std::vector<double> cumulative_;
};

}  // namespace servebench
