#pragma once

/// \file query_graph_analysis.h
/// \brief Per-topic structural analysis of query graphs (paper §3).
///
/// For one topic's G(q) this computes: largest-connected-component ratios
/// (Table 3 inputs), triangle participation, and the full set of cycles of
/// length 2–5 touching a query article, each with its structural metrics
/// and its *contribution* — the change of O (Equation 1) when the cycle's
/// articles are added to the query, in percentage points (Figure 5/9
/// inputs; the paper's "percentual difference" read as points keeps
/// topics with different baselines comparable).  Structure is read from the
/// testbed engine's published snapshot, retrieval from its index.

#include <array>
#include <vector>

#include "api/testbed.h"
#include "common/result.h"
#include "graph/connected_components.h"
#include "graph/cycle_metrics.h"
#include "graph/cycles.h"
#include "graph/triangles.h"
#include "groundtruth/ground_truth.h"

namespace wqe::analysis {

using graph::NodeId;

/// \brief Smallest/largest cycle length analyzed (paper bound).
inline constexpr uint32_t kMinCycleLength = 2;
inline constexpr uint32_t kMaxCycleLength = 5;

/// \brief Largest-connected-component measurements (one Table 3 row set).
struct ComponentStats {
  double relative_size = 0.0;     ///< |CC| / |G(q)|
  double query_node_ratio = 0.0;  ///< fraction of L(q.k) inside the CC
  double article_ratio = 0.0;     ///< articles / |CC|
  double category_ratio = 0.0;    ///< categories / |CC|
  double expansion_ratio = 0.0;   ///< |A' ∩ CC| / |L(q.k) ∩ CC| (0: no query node)
  double tpr = 0.0;               ///< triangle participation ratio of the CC
  size_t graph_size = 0;          ///< |G(q)|
  size_t num_components = 0;
};

/// \brief One analyzed cycle.
struct CycleRecord {
  graph::Cycle cycle;             ///< KB node ids
  graph::CycleMetrics metrics;
  double contribution = 0.0;      ///< % change of O when added to L(q.k)
};

/// \brief Analysis output for one topic.
struct TopicAnalysis {
  size_t topic_index = 0;
  ComponentStats component;
  std::vector<CycleRecord> cycles;
  double baseline_quality = 0.0;  ///< O(L(q.k), D)

  /// KB article ids found in cycles, bucketed by cycle length (index 0
  /// unused; lengths 2..5).
  std::array<std::vector<NodeId>, kMaxCycleLength + 1> articles_by_length;

  /// \brief Cycles of one length.
  size_t CountCycles(uint32_t length) const;
};

/// \brief Analyzer options.
struct AnalyzerOptions {
  /// Contribution is expensive (one retrieval per distinct article set);
  /// cap the number of cycles scored per topic (0 = unlimited). Cycle
  /// *counts* (Fig 6) always use the full enumeration.
  size_t max_scored_cycles = 4000;

  /// Threads for `AnalyzeAll`'s topic fan-out: 1 = sequential (default),
  /// 0 = one per hardware thread.  Each topic is analyzed sequentially by
  /// the thread that claims it; `Analyze` is always sequential.
  uint32_t num_threads = 1;
};

/// \brief Per-topic analyzer bound to a testbed + ground truth.
/// Analysis calls are const and thread-safe (the testbed is immutable
/// after Build, and each call pins the graph epoch it reads).
class QueryGraphAnalyzer {
 public:
  QueryGraphAnalyzer(const api::Testbed* bed,
                     const groundtruth::GroundTruth* gt,
                     AnalyzerOptions options = {})
      : bed_(bed), gt_(gt), options_(options) {}

  /// \brief Full analysis of one topic (by index into the ground truth).
  /// Pins the engine's snapshot once, so the whole topic reads one graph
  /// epoch.
  Result<TopicAnalysis> Analyze(size_t topic_index) const;

  /// \brief Analyses for all topics.  With `num_threads != 1` topics run
  /// in parallel on a `serve::ThreadPool` of at most `num_threads - 1`
  /// workers made for the call, with the calling thread as the last
  /// participant; output is element-wise identical to the sequential run
  /// (each topic's analysis is a pure function of the immutable
  /// testbed), and on failure the lowest failing topic index reports —
  /// the same error a sequential run would surface first.
  Result<std::vector<TopicAnalysis>> AnalyzeAll() const;

 private:
  const api::Testbed* bed_;
  const groundtruth::GroundTruth* gt_;
  AnalyzerOptions options_;
};

}  // namespace wqe::analysis
