#pragma once

/// \file synthetic.h
/// \brief Seeded generator of a Wikipedia-shaped knowledge base.
///
/// Substitute for the real English Wikipedia dump (see DESIGN.md §2).
/// The generator produces *topic domains* — clusters of articles sharing a
/// small category subtree and dense intra-domain linking — connected by a
/// sparse cross-domain background.  The structural knobs (constants in
/// synthetic.cc) are calibrated to the scalars the paper reports on real
/// Wikipedia:
///
///  - the reciprocal-link probability, with the planted hub partnerships,
///    reproduces "11.47% of connected article pairs form a cycle of
///    length 2";
///  - tree-like categories (each category has one parent) keep the pure
///    category graph triangle-free, so triangles only arise through
///    articles — matching the paper's TPR discussion;
///  - redirect articles carry only their redirect edge and thus can never
///    close cycles (§4).

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "wiki/knowledge_base.h"

namespace wqe::wiki {

/// \brief Generator parameters.  Defaults give a laptop-scale KB (~3k
/// articles) that exhibits all the paper's structural trends; the
/// structural knobs are fixed, as named constants in synthetic.cc.
struct SyntheticWikipediaOptions {
  uint64_t seed = 42;

  /// Number of topic domains (each gets a disjoint 8-word vocabulary).
  uint32_t num_domains = 64;
};

/// \brief A generated knowledge base plus domain bookkeeping (used by the
/// CLEF track generator to plant queries inside domains).
struct SyntheticWikipedia {
  KnowledgeBase kb;
  /// Main articles of each domain, in popularity order (index 0 = hub).
  std::vector<std::vector<NodeId>> domain_articles;
  /// Categories of each domain (index 0 = domain root category).
  std::vector<std::vector<NodeId>> domain_categories;
};

/// \brief Generates the knowledge base, frozen.  Fails on zero domains.
Result<SyntheticWikipedia> GenerateSyntheticWikipedia(
    const SyntheticWikipediaOptions& options);

}  // namespace wqe::wiki
