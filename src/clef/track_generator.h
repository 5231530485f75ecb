#pragma once

/// \file track_generator.h
/// \brief Synthetic ImageCLEF-style track with planted relevance structure.
///
/// Substitute for the ImageCLEF 2011 collection (see DESIGN.md §2).  For
/// each topic the generator picks a knowledge-base domain and three article
/// strata around the topic's query articles Q:
///
///  - **core** articles: mutual-link partners of Q — these sit in length-2
///    cycles and tight triangles with Q, and are mentioned densely in most
///    relevant documents (they sharpen top-1/top-5 precision);
///  - **peripheral** articles: related through shared categories or
///    one-directional links — they sit in category-bridged cycles of
///    length 3–5 and are mentioned in "tail" relevant documents that avoid
///    core vocabulary (they widen top-10/top-15);
///  - **weak** articles: same-domain decoys with no direct relation to Q —
///    they appear in *both* some relevant documents (putting them into
///    L(q.D)) and in many distractor documents (making them harmful
///    expansion features the optimizer must reject).
///
/// Distractor documents contain the exact query phrases amid foreign-topic
/// text, recreating the paper's premise that unexpanded keyword queries
/// are imprecise; non-English sections carry misleading foreign-domain
/// titles, which exercises the §2.1 rule that only the English section is
/// linked.

#include <cstdint>

#include "clef/track.h"
#include "common/result.h"
#include "wiki/synthetic.h"

namespace wqe::clef {

/// \brief Generator parameters.  The planting knobs are fixed, as named
/// constants in track_generator.cc.
struct TrackGeneratorOptions {
  uint64_t seed = 7;
  uint32_t num_topics = 50;

  /// Topic-independent background documents.
  uint32_t background_docs = 600;
};

/// \brief Generates the full track against a synthetic knowledge base.
Result<Track> GenerateTrack(const wiki::SyntheticWikipedia& wiki,
                            const TrackGeneratorOptions& options);

}  // namespace wqe::clef
