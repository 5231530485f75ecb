#pragma once

/// \file expander.h
/// \brief Query-expansion system interface.
///
/// §4 of the paper calls for "techniques aimed at taking advantage of the
/// trends analyzed in this paper in real query expansion systems".  This
/// module packages the pipeline as such a system: an `Expander` takes raw
/// query keywords, links them to Wikipedia articles, selects expansion
/// features from the knowledge-base structure, and emits a ready-to-run
/// exact-phrase query.  Implementations: `CycleExpander` (the paper's
/// dense-cycle criterion) and the baselines in baselines.h.  An expander
/// has no name of its own: `api::ExpanderRegistry` names the strategies,
/// and a response carries the registry name it was served under.

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "ir/query.h"
#include "linking/entity_linker.h"
#include "wiki/knowledge_base.h"

namespace wqe::expansion {

using graph::NodeId;

/// \brief Output of an expansion.
struct ExpandedQuery {
  std::vector<NodeId> query_articles;    ///< L(k), linked from the keywords
  std::vector<NodeId> feature_articles;  ///< selected expansion features
  std::vector<std::string> titles;       ///< all phrase titles issued
  ir::QueryNode query;                   ///< #combine of exact phrases
};

/// \brief Abstract expansion system.
///
/// The template method `Expand` handles linking and query construction;
/// subclasses implement feature selection only.
///
/// Construction takes references: an expander is never valid without a
/// knowledge base and a linker, and the referenced objects must outlive
/// it (the `api::Engine` facade owns both and hands out expanders through
/// its registry, which is the supported way to build one).
class Expander {
 public:
  Expander(const wiki::KnowledgeBase& kb,
           const linking::EntityLinker& linker)
      : kb_(&kb), linker_(&linker) {}
  virtual ~Expander() = default;

  /// \brief Runs the full expansion.  When the keywords link to no
  /// article, the query falls back to the raw keywords with no features.
  Result<ExpandedQuery> Expand(std::string_view keywords) const;

 protected:
  /// \brief Selects expansion features for the linked query articles.
  virtual Result<std::vector<NodeId>> SelectFeatures(
      const std::vector<NodeId>& query_articles) const = 0;

  const wiki::KnowledgeBase& kb() const { return *kb_; }
  const linking::EntityLinker& linker() const { return *linker_; }

 private:
  const wiki::KnowledgeBase* kb_;
  const linking::EntityLinker* linker_;
};

}  // namespace wqe::expansion
