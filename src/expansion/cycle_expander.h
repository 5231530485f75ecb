#pragma once

/// \file cycle_expander.h
/// \brief The paper's core proposal as a working system.
///
/// §3/§4 conclude that the best expansion features live in *dense cycles
/// with a category ratio around 30%*: short cycles sharpen early precision,
/// longer ones widen the result set.  `CycleExpander` operationalizes
/// that: it takes the knowledge-base ball around the linked query articles,
/// enumerates cycles of length 2–5 through them, keeps cycles passing the
/// density/category-ratio filters, and ranks candidate articles by their
/// accumulated cycle evidence.

#include "expansion/expander.h"
#include "graph/cycle_metrics.h"

namespace wqe::expansion {

/// \brief Longest cycle the expander accepts: the paper's bound, and the
/// width of its per-length tallies.
inline constexpr uint32_t kMaxCycleLength = 5;

/// \brief Filter and ranking knobs (defaults = the paper's findings).
struct CycleExpanderOptions {
  /// BFS radius of the neighborhood ball around the query articles.
  uint32_t neighborhood_radius = 2;
  /// Cap on the ball size (cycle enumeration is exponential in length).
  /// Each request also builds an n² byte pair table over its ball (see
  /// `graph::BallCycleScorer`).
  size_t max_neighborhood = 400;

  uint32_t min_cycle_length = 2;
  uint32_t max_cycle_length = kMaxCycleLength;  ///< at most kMaxCycleLength

  /// Minimum extra-edge density ("the denser the cycle, the better its
  /// contribution", Fig 9), applied to cycles of length >=
  /// `min_density_from_length`.  Shorter cycles (3) are tight enough that
  /// the category filter alone suffices; long cycles without extra edges
  /// are mostly category co-membership noise.
  double min_density = 0.4;
  uint32_t min_density_from_length = 4;

  /// Category-ratio window for cycles of length >= 3 (the paper's "around
  /// the 30%"); category-free cycles are rejected as semantically loose
  /// (the sheep–quarantine–anthrax example, Fig 8).
  double min_category_ratio = 0.15;
  double max_category_ratio = 0.55;

  /// Length-2 cycles carry no categories and are accepted unconditionally
  /// (they have the highest average contribution, Fig 5); this weight
  /// boosts their articles in the ranking.
  double two_cycle_weight = 2.0;

  /// Evidence from a cycle of length L is scaled by decay^(L-2): the
  /// number of cycles grows roughly geometrically with length (Fig 6), so
  /// without normalization long-cycle counts would drown out the scarce,
  /// high-contribution short structures (Fig 5).
  double length_decay = 0.3;

  /// Per-article, per-length cycle counts enter the score through a square
  /// root, damping the combinatorial explosion of long cycles through
  /// well-connected but semantically loose articles.
  bool sqrt_count_damping = true;

  /// Number of expansion features returned.
  size_t max_features = 5;

  /// Safety cap on enumerated cycles.
  size_t max_cycles = 50000;

  /// §4 future-work extension: also emit the redirect aliases of the
  /// selected features ("less common ways to refer a concept").  Redirects
  /// can never close a cycle themselves (they carry only the redirect
  /// edge), so they are reachable only through this explicit opt-in.
  bool include_redirect_aliases = false;
  size_t max_alias_features = 3;

  /// Ball-prune the neighborhood before enumerating (graph/ball_prune.h).
  /// Features are bit-identical either way; this is an execution knob,
  /// NOT an `ExpanderOverrides` field, so it never splits serving-cache
  /// keys.  Pruning also feeds the DFS's seed-distance cut, so turning it
  /// off only slows a request down.
  bool prune_ball = true;
};

/// \brief Dense-cycle expansion system.
class CycleExpander : public Expander {
 public:
  CycleExpander(const wiki::KnowledgeBase& kb,
                const linking::EntityLinker& linker,
                CycleExpanderOptions options = {})
      : Expander(kb, linker), options_(options) {}

  const char* name() const override { return "cycle-expansion"; }

  /// \brief True when a cycle (by its metrics) passes the structural
  /// filters. Exposed for tests and the filter-ablation bench.
  bool AcceptsCycle(const graph::CycleMetrics& metrics) const;

  const CycleExpanderOptions& options() const { return options_; }

 protected:
  Result<std::vector<NodeId>> SelectFeatures(
      const std::vector<NodeId>& query_articles) const override;

 private:
  CycleExpanderOptions options_;
};

}  // namespace wqe::expansion
