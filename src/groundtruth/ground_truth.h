#pragma once

/// \file ground_truth.h
/// \brief The full §2 ground-truth construction, per topic and batched.
///
/// For each topic q: link L(q.k) and L(q.D) (§2.1), hill-climb X(q)
/// (§2.2), assemble G(q) (§2.3), and record the final top-r precisions
/// (the rows of Table 2).  The experiment is an `api::Testbed`: the KB and
/// linker come from its engine's published snapshot, retrieval and the
/// document text from its index, the qrels from its track.

#include <string>
#include <vector>

#include "api/testbed.h"
#include "common/result.h"
#include "groundtruth/query_graph.h"
#include "groundtruth/xq_optimizer.h"

namespace wqe::groundtruth {

/// \brief Ground truth for one topic.
struct GroundTruthEntry {
  /// Index of the topic within the testbed's track (qrels lookup).
  size_t topic_index = 0;
  uint32_t topic_id = 0;
  std::string keywords;
  std::vector<NodeId> query_articles;  ///< L(q.k)
  std::vector<NodeId> doc_articles;    ///< L(q.D)
  XqResult xq;                         ///< A' and qualities
  QueryGraph graph;                    ///< G(q)
  /// P(X(q), r, D) for r in {1, 5, 10, 15}.
  std::vector<double> precision_at;
};

/// \brief Ground truth for the whole track.
struct GroundTruth {
  std::vector<GroundTruthEntry> entries;
};

/// \brief Builder running §2 end to end against a testbed.
class GroundTruthBuilder {
 public:
  GroundTruthBuilder(const api::Testbed* bed,
                     XqOptimizerOptions xq_options = {})
      : bed_(bed), xq_options_(xq_options) {}

  /// \brief Ground truth for one topic (by index into the track).  Pins
  /// the engine's snapshot once, so the whole entry reads one graph epoch.
  Result<GroundTruthEntry> BuildEntry(size_t topic_index) const;

  /// \brief Ground truth for all topics.
  Result<GroundTruth> Build() const;

 private:
  const api::Testbed* bed_;
  XqOptimizerOptions xq_options_;
};

/// \brief Serializes ground truth as text: one line per topic,
/// `id <TAB> keywords <TAB> title;title;... <TAB> quality <TAB> baseline`.
/// (The paper published its ground truth in a similar flat format.)
std::string WriteGroundTruth(const GroundTruth& gt,
                             const wiki::KnowledgeBase& kb);

}  // namespace wqe::groundtruth
