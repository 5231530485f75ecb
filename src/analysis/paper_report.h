#pragma once

/// \file paper_report.h
/// \brief Aggregations reproducing every table and figure of the paper.
///
/// Each `ComputeX` maps per-topic analyses (and, where retrieval or the
/// KB is involved, the testbed) to exactly the numbers the paper reports:
/// Table 2 (ground-truth precision stats), Table 3 (largest-CC stats),
/// Table 4 (precision by cycle-length configuration), Figure 5
/// (contribution vs length), Figure 6 (cycle counts vs length), Figures
/// 7a/7b (category ratio and extra-edge density vs length), Figure 9
/// (density vs contribution), and the §3 scalars (TPR, reciprocal-pair
/// rate, average graph size).  A `ComputeX` that takes the testbed pins
/// its engine's snapshot once per call; a built KB and one loaded from a
/// snapshot file are the same frozen object, so both report the same
/// numbers.

#include <array>
#include <vector>

#include "analysis/query_graph_analysis.h"
#include "common/stats.h"

namespace wqe::analysis {

/// \brief Table 2: five-number summary of P@r over all topics.
struct Table2Row {
  size_t cutoff = 0;
  FiveNumberSummary summary;
};
std::vector<Table2Row> ComputeTable2(const groundtruth::GroundTruth& gt);

/// \brief Table 3: five-number summaries of the largest-CC ratios.
struct Table3Report {
  FiveNumberSummary relative_size;
  FiveNumberSummary query_node_ratio;
  FiveNumberSummary article_ratio;
  FiveNumberSummary category_ratio;
  FiveNumberSummary expansion_ratio;
};
Table3Report ComputeTable3(const std::vector<TopicAnalysis>& analyses);

/// \brief Table 4: average P@{1,5,10,15} when the expansion features are
/// the articles found in cycles of the given length set.
struct Table4Row {
  std::vector<uint32_t> lengths;          ///< e.g. {2,3}
  std::array<double, 4> precision{};      ///< P@1, P@5, P@10, P@15
};

/// \brief The paper's seven configurations: {2},{3},{4},{5},{2,3},
/// {2,3,4},{2,3,4,5}.
const std::vector<std::vector<uint32_t>>& Table4Configurations();

/// Each analysis is scored against the qrels of its ground-truth entry's
/// own track topic (`topic_index`), so a partial ground truth works.
Result<std::vector<Table4Row>> ComputeTable4(
    const api::Testbed& bed,
    const groundtruth::GroundTruth& gt,
    const std::vector<TopicAnalysis>& analyses);

/// \brief A per-cycle-length series (Figures 5, 6, 7a, 7b).
struct LengthSeries {
  std::vector<uint32_t> lengths;
  std::vector<double> values;
};

/// \brief Figure 5: average contribution (%) per cycle length.
LengthSeries ComputeFig5(const std::vector<TopicAnalysis>& analyses);

/// \brief Figure 6: average number of cycles per length (per topic).
LengthSeries ComputeFig6(const std::vector<TopicAnalysis>& analyses);

/// \brief Figure 7a: average category ratio per length (3–5).
LengthSeries ComputeFig7a(const std::vector<TopicAnalysis>& analyses);

/// \brief Figure 7b: average extra-edge density per length (3–5).
LengthSeries ComputeFig7b(const std::vector<TopicAnalysis>& analyses);

/// \brief Figure 9: extra-edge density vs average contribution.
struct Fig9Report {
  std::vector<double> bin_centers;
  std::vector<double> mean_contribution;  ///< NaN-free; empty bins skipped
  std::vector<size_t> bin_counts;
  LinearFit trend;                        ///< fit over raw (density, contribution)
  size_t num_cycles = 0;
};
Fig9Report ComputeFig9(const std::vector<TopicAnalysis>& analyses,
                       size_t num_bins = 10);

/// \brief §4 open problem: "We have not analysed how the frequency of a
/// given article in the cycles and the goodness of its title as expansion
/// feature are correlated ... Such correlation, if existing, could be
/// exploited."  This computes it: for every non-query article of every
/// query graph, its cycle frequency vs the contribution (percentage
/// points of O) of adding that article alone.
struct ArticleFrequencyReport {
  double pearson = 0.0;          ///< correlation over all (freq, gain) pairs
  LinearFit trend;               ///< gain as a linear function of frequency
  size_t num_articles = 0;
  /// Mean solo gain of articles appearing in >= median frequency vs below.
  double mean_gain_frequent = 0.0;
  double mean_gain_rare = 0.0;
};

Result<ArticleFrequencyReport> ComputeArticleFrequencyCorrelation(
    const api::Testbed& bed,
    const groundtruth::GroundTruth& gt,
    const std::vector<TopicAnalysis>& analyses);

/// \brief §3 scalars.
struct MiscScalars {
  double mean_largest_cc_tpr = 0.0;   ///< paper: ≈ 0.3
  double reciprocal_link_rate = 0.0;  ///< paper: 0.1147
  double mean_graph_size = 0.0;       ///< paper: 208.22 nodes
};
MiscScalars ComputeMiscScalars(const api::Testbed& bed,
                               const std::vector<TopicAnalysis>& analyses);

}  // namespace wqe::analysis
