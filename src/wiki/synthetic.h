#pragma once

/// \file synthetic.h
/// \brief Seeded generator of a Wikipedia-shaped knowledge base.
///
/// Substitute for the real English Wikipedia dump (see DESIGN.md §2).
/// The generator produces *topic domains* — clusters of articles sharing a
/// small category subtree and dense intra-domain linking — connected by a
/// sparse cross-domain background.  The structural knobs are calibrated to
/// the scalars the paper reports on real Wikipedia:
///
///  - `reciprocal_link_prob` ≈ 0.115 reproduces "11.47% of connected
///    article pairs form a cycle of length 2";
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

/// \brief Generator parameters. Defaults give a laptop-scale KB
/// (~3k articles) that exhibits all the paper's structural trends.
struct SyntheticWikipediaOptions {
  uint64_t seed = 42;

  /// Number of topic domains (each gets a disjoint 8-word vocabulary).
  uint32_t num_domains = 64;

  /// Articles per domain: uniform in [min, max].
  uint32_t min_articles_per_domain = 28;
  uint32_t max_articles_per_domain = 56;

  /// Categories per domain: uniform in [min, max]; arranged as a tree.
  /// Generous counts keep query graphs category-dominated, as the paper
  /// observes on real Wikipedia (Table 3: ~78% categories).
  uint32_t min_categories_per_domain = 16;
  uint32_t max_categories_per_domain = 28;

  /// Top-level categories shared by all domains.
  uint32_t num_root_categories = 5;

  /// Out-links per article: 2 + Zipf(link_zipf_n, link_zipf_s).  The
  /// exponent is calibrated against the *corrected* rejection-inversion
  /// sampler (p(k) ∝ 1/(k+1)^s): s = 2.4 keeps the mean extra fanout ~0.6
  /// so tail articles stay link-sparse and the planted hub structure —
  /// not background link noise — dominates short cycles, as on real
  /// Wikipedia.
  uint32_t link_zipf_n = 9;
  double link_zipf_s = 2.4;

  /// Popularity-bias exponent for link targets: half of all links aim at
  /// a Zipf(num_articles, link_target_s) rank, concentrating in-links on
  /// the domain hubs.
  double link_target_s = 1.6;

  /// Probability that an ordinary link is reciprocated (creates a
  /// length-2 cycle).  Together with the planted hub partnerships below
  /// this calibrates the global reciprocal-pair rate to the paper's
  /// measured 11.47%.
  double reciprocal_link_prob = 0.02;

  /// Mutual-link partners planted per hub article (hubs are the first
  /// `hub_count` articles of a domain).  Real Wikipedia's reciprocal pairs
  /// concentrate among related prominent articles ("Venice" ↔ "Grand
  /// Canal"), which is what makes length-2 cycles informative.
  uint32_t hub_mutual_partners = 1;
  uint32_t hub_count = 8;

  /// Probability an article gets one extra cross-domain link.
  double cross_domain_link_prob = 0.08;

  /// Probability an article belongs to a category of another domain.
  double cross_domain_category_prob = 0.04;

  /// Extra categories per article beyond the mandatory one:
  /// article belongs to 1 + Binomial(4, extra_category_prob) categories.
  double extra_category_prob = 0.5;

  /// Probability an article has ≥1 redirect alias (then 1–2 aliases).
  double redirect_prob = 0.30;
};

/// \brief A generated knowledge base plus domain bookkeeping (used by the
/// CLEF track generator to plant queries inside domains).
struct SyntheticWikipedia {
  KnowledgeBase kb;
  /// Main articles of each domain, in popularity order (index 0 = hub).
  std::vector<std::vector<NodeId>> domain_articles;
  /// Categories of each domain (index 0 = domain root category).
  std::vector<std::vector<NodeId>> domain_categories;

  SyntheticWikipediaOptions options;
};

/// \brief Generates the knowledge base, frozen. Fails only on inconsistent
/// options (e.g. zero domains).
Result<SyntheticWikipedia> GenerateSyntheticWikipedia(
    const SyntheticWikipediaOptions& options);

}  // namespace wqe::wiki
