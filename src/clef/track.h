#pragma once

/// \file track.h
/// \brief The benchmark track: documents + topics (queries with qrels).
///
/// Mirrors the ImageCLEF 2011 Wikipedia image-retrieval track used by the
/// paper: a collection of image-metadata documents and fifty topics, each a
/// keyword query `k` with its set `D` of correct documents.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace wqe::clef {

/// \brief One benchmark document (metadata XML + its external name).
struct TrackDocument {
  std::string name;  ///< external id, e.g. "82531.xml"
  std::string xml;   ///< full metadata file content
};

/// \brief One topic: the tuple q = <k, D> of the paper's Table 1.
struct Topic {
  uint32_t id = 0;
  std::string keywords;                ///< the raw query string k
  std::vector<std::string> relevant;   ///< names of the documents in D

  /// \name Generator provenance (planted ground truth)
  /// Populated by the synthetic generator for tests and sanity checks.
  /// The analysis pipeline never reads these.
  /// @{
  uint32_t domain = UINT32_MAX;
  std::vector<graph::NodeId> query_articles;
  std::vector<graph::NodeId> planted_good;  ///< intended expansion articles
  std::vector<graph::NodeId> planted_weak;  ///< decoys present in D's docs
  /// @}
};

/// \brief The whole track.
struct Track {
  std::vector<TrackDocument> documents;
  std::vector<Topic> topics;
};

}  // namespace wqe::clef
