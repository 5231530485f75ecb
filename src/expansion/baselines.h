#pragma once

/// \file baselines.h
/// \brief Baseline expansion systems the paper compares against.
///
///  - `NoExpansion`: the unexpanded keyword query (the implicit baseline of
///    every contribution measurement).
///  - `DirectLinkExpansion`: expansion by the individual links of each
///    query article "without going deeper into further relationships" —
///    the strategy of the paper's refs [1, 2, 3].
///  - `CommunityExpansion`: triangle-based community expansion in the
///    spirit of ref [4] (WCC-style): features are articles closing
///    triangles with the query articles, ranked by triangle support —
///    "assuming that a structure as simple as a transitive relation is
///    sufficient".

#include "expansion/expander.h"

namespace wqe::expansion {

/// \brief Identity system: no features.
class NoExpansion : public Expander {
 public:
  using Expander::Expander;

 protected:
  Result<std::vector<NodeId>> SelectFeatures(
      const std::vector<NodeId>& query_articles) const override;
};

/// \brief Direct-link options.
struct DirectLinkOptions {
  size_t max_features = 10;
  /// Prefer reciprocally-linked neighbors before one-directional ones.
  /// Off by default: the refs [1-3] strategy uses links indiscriminately;
  /// turning this on borrows the paper's length-2-cycle insight.
  bool prioritize_mutual = false;
};

/// \brief Per-article link expansion (refs [1–3]).
class DirectLinkExpansion : public Expander {
 public:
  DirectLinkExpansion(const wiki::KnowledgeBase& kb,
                      const linking::EntityLinker& linker,
                      DirectLinkOptions options = {})
      : Expander(kb, linker), options_(options) {}

 protected:
  Result<std::vector<NodeId>> SelectFeatures(
      const std::vector<NodeId>& query_articles) const override;

 private:
  DirectLinkOptions options_;
};

/// \brief Community options.
struct CommunityOptions {
  size_t max_features = 10;
  uint32_t neighborhood_radius = 1;
  size_t max_neighborhood = 300;
};

/// \brief Triangle/community expansion (ref [4] style).
class CommunityExpansion : public Expander {
 public:
  CommunityExpansion(const wiki::KnowledgeBase& kb,
                     const linking::EntityLinker& linker,
                     CommunityOptions options = {})
      : Expander(kb, linker), options_(options) {}

 protected:
  Result<std::vector<NodeId>> SelectFeatures(
      const std::vector<NodeId>& query_articles) const override;

 private:
  CommunityOptions options_;
};

}  // namespace wqe::expansion
