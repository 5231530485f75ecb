#include "analysis/paper_report.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common/macros.h"
#include "graph/cycle_metrics.h"
#include "groundtruth/xq_optimizer.h"
#include "ir/eval.h"

namespace wqe::analysis {

std::vector<Table2Row> ComputeTable2(const groundtruth::GroundTruth& gt) {
  const std::vector<size_t>& cutoffs = ir::PaperRankCutoffs();
  std::vector<Table2Row> rows;
  for (size_t c = 0; c < cutoffs.size(); ++c) {
    std::vector<double> values;
    for (const groundtruth::GroundTruthEntry& e : gt.entries) {
      if (c < e.precision_at.size()) values.push_back(e.precision_at[c]);
    }
    Table2Row row;
    row.cutoff = cutoffs[c];
    row.summary = Summarize(std::move(values));
    rows.push_back(std::move(row));
  }
  return rows;
}

Table3Report ComputeTable3(const std::vector<TopicAnalysis>& analyses) {
  std::vector<double> size, query_nodes, articles, categories, expansion;
  for (const TopicAnalysis& a : analyses) {
    size.push_back(a.component.relative_size);
    query_nodes.push_back(a.component.query_node_ratio);
    articles.push_back(a.component.article_ratio);
    categories.push_back(a.component.category_ratio);
    expansion.push_back(a.component.expansion_ratio);
  }
  Table3Report report;
  report.relative_size = Summarize(std::move(size));
  report.query_node_ratio = Summarize(std::move(query_nodes));
  report.article_ratio = Summarize(std::move(articles));
  report.category_ratio = Summarize(std::move(categories));
  report.expansion_ratio = Summarize(std::move(expansion));
  return report;
}

const std::vector<std::vector<uint32_t>>& Table4Configurations() {
  static const std::vector<std::vector<uint32_t>>* kConfigs =
      new std::vector<std::vector<uint32_t>>{
          {2}, {3}, {4}, {5}, {2, 3}, {2, 3, 4}, {2, 3, 4, 5}};
  return *kConfigs;
}

Result<std::vector<Table4Row>> ComputeTable4(
    const api::Testbed& bed,
    const groundtruth::GroundTruth& gt,
    const std::vector<TopicAnalysis>& analyses) {
  const std::shared_ptr<const api::GraphSnapshot> snapshot =
      bed.engine().CurrentSnapshot();
  const wiki::KnowledgeBase& kb = snapshot->kb;
  const ir::SearchEngine& search = bed.engine().search_engine();
  const std::vector<size_t>& cutoffs = ir::PaperRankCutoffs();
  std::vector<Table4Row> rows;

  for (const std::vector<uint32_t>& config : Table4Configurations()) {
    Table4Row row;
    row.lengths = config;
    std::array<double, 4> sums{};
    size_t counted = 0;

    for (size_t t = 0; t < analyses.size(); ++t) {
      const TopicAnalysis& a = analyses[t];
      const groundtruth::GroundTruthEntry& entry = gt.entries[t];

      // Expansion features: articles inside cycles of the configured
      // lengths (query articles excluded from the feature list, then the
      // query itself is always part of the issued query).
      std::unordered_set<graph::NodeId> feature_set;
      for (uint32_t len : config) {
        for (graph::NodeId article : a.articles_by_length[len]) {
          feature_set.insert(article);
        }
      }
      std::vector<std::string> titles;
      for (graph::NodeId q : entry.query_articles) {
        titles.emplace_back(kb.display_title(q));
        feature_set.erase(q);
      }
      for (graph::NodeId f : feature_set) {
        titles.emplace_back(kb.display_title(f));
      }
      if (titles.empty()) continue;

      auto results = search.SearchTitles(titles, 15);
      if (!results.ok()) {
        if (results.status().IsInvalidArgument()) continue;
        return results.status();
      }
      const ir::RelevantSet& relevant = bed.relevant(entry.topic_index);
      for (size_t c = 0; c < cutoffs.size(); ++c) {
        sums[c] += ir::PrecisionAtR(*results, relevant, cutoffs[c]);
      }
      ++counted;
    }
    for (size_t c = 0; c < cutoffs.size(); ++c) {
      row.precision[c] =
          counted == 0 ? 0.0 : sums[c] / static_cast<double>(counted);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {

/// Per-length mean of a per-cycle quantity, averaged per topic first
/// (every topic weighs equally, as in the paper's "average" figures).
LengthSeries PerLengthTopicMean(
    const std::vector<TopicAnalysis>& analyses, uint32_t min_length,
    double (*extract)(const CycleRecord&),
    bool (*include)(const CycleRecord&)) {
  LengthSeries series;
  for (uint32_t len = min_length; len <= kMaxCycleLength; ++len) {
    std::vector<double> topic_means;
    for (const TopicAnalysis& a : analyses) {
      double sum = 0.0;
      size_t n = 0;
      for (const CycleRecord& r : a.cycles) {
        if (r.cycle.length() != len || !include(r)) continue;
        sum += extract(r);
        ++n;
      }
      if (n > 0) topic_means.push_back(sum / static_cast<double>(n));
    }
    series.lengths.push_back(len);
    series.values.push_back(Mean(topic_means));
  }
  return series;
}

bool IncludeAlways(const CycleRecord&) { return true; }

}  // namespace

LengthSeries ComputeFig5(const std::vector<TopicAnalysis>& analyses) {
  return PerLengthTopicMean(
      analyses, kMinCycleLength,
      [](const CycleRecord& r) { return r.contribution; }, IncludeAlways);
}

LengthSeries ComputeFig6(const std::vector<TopicAnalysis>& analyses) {
  LengthSeries series;
  for (uint32_t len = kMinCycleLength; len <= kMaxCycleLength; ++len) {
    double sum = 0.0;
    for (const TopicAnalysis& a : analyses) {
      sum += static_cast<double>(a.CountCycles(len));
    }
    series.lengths.push_back(len);
    series.values.push_back(
        analyses.empty() ? 0.0 : sum / static_cast<double>(analyses.size()));
  }
  return series;
}

LengthSeries ComputeFig7a(const std::vector<TopicAnalysis>& analyses) {
  return PerLengthTopicMean(
      analyses, 3,
      [](const CycleRecord& r) { return r.metrics.category_ratio; },
      IncludeAlways);
}

LengthSeries ComputeFig7b(const std::vector<TopicAnalysis>& analyses) {
  return PerLengthTopicMean(
      analyses, 3,
      [](const CycleRecord& r) { return r.metrics.extra_edge_density; },
      IncludeAlways);
}

Fig9Report ComputeFig9(const std::vector<TopicAnalysis>& analyses,
                       size_t num_bins) {
  Fig9Report report;
  std::vector<double> densities, contributions;
  for (const TopicAnalysis& a : analyses) {
    for (const CycleRecord& r : a.cycles) {
      // Density is only defined for cycles that can hold extra edges.
      if (r.metrics.max_edges <= r.metrics.length) continue;
      densities.push_back(r.metrics.extra_edge_density);
      contributions.push_back(r.contribution);
    }
  }
  report.num_cycles = densities.size();
  if (densities.size() >= 2) {
    report.trend = FitLine(densities, contributions);
  }
  if (num_bins == 0) num_bins = 1;
  std::vector<double> bin_sum(num_bins, 0.0);
  std::vector<size_t> bin_n(num_bins, 0);
  for (size_t i = 0; i < densities.size(); ++i) {
    size_t b = std::min(num_bins - 1,
                        static_cast<size_t>(densities[i] *
                                            static_cast<double>(num_bins)));
    bin_sum[b] += contributions[i];
    ++bin_n[b];
  }
  for (size_t b = 0; b < num_bins; ++b) {
    if (bin_n[b] == 0) continue;
    report.bin_centers.push_back(
        (static_cast<double>(b) + 0.5) / static_cast<double>(num_bins));
    report.mean_contribution.push_back(bin_sum[b] /
                                       static_cast<double>(bin_n[b]));
    report.bin_counts.push_back(bin_n[b]);
  }
  return report;
}

Result<ArticleFrequencyReport> ComputeArticleFrequencyCorrelation(
    const api::Testbed& bed,
    const groundtruth::GroundTruth& gt,
    const std::vector<TopicAnalysis>& analyses) {
  const std::shared_ptr<const api::GraphSnapshot> snapshot =
      bed.engine().CurrentSnapshot();
  const graph::CsrGraph& csr = snapshot->kb.csr();
  groundtruth::XqOptimizer evaluator(&bed.engine().search_engine(),
                                     &snapshot->kb);
  std::vector<double> freqs, gains;

  for (size_t t = 0; t < analyses.size(); ++t) {
    const TopicAnalysis& a = analyses[t];
    const groundtruth::GroundTruthEntry& entry = gt.entries[t];
    const ir::RelevantSet& relevant = bed.relevant(entry.topic_index);

    // Cycle frequency of every non-query article.
    std::unordered_map<graph::NodeId, uint32_t> frequency;
    for (const CycleRecord& r : a.cycles) {
      for (graph::NodeId n : r.cycle.nodes) {
        if (!csr.IsArticle(n)) continue;
        if (std::find(entry.query_articles.begin(),
                      entry.query_articles.end(),
                      n) != entry.query_articles.end()) {
          continue;
        }
        ++frequency[n];
      }
    }
    if (frequency.empty()) continue;

    WQE_ASSIGN_OR_RETURN(
        double baseline,
        evaluator.EvaluateArticles(entry.query_articles, relevant));
    for (const auto& [article, freq] : frequency) {
      std::vector<graph::NodeId> with_article = entry.query_articles;
      with_article.push_back(article);
      WQE_ASSIGN_OR_RETURN(double quality,
                           evaluator.EvaluateArticles(with_article, relevant));
      freqs.push_back(static_cast<double>(freq));
      gains.push_back(100.0 * (quality - baseline));
    }
  }

  ArticleFrequencyReport report;
  report.num_articles = freqs.size();
  if (freqs.size() >= 2) {
    report.pearson = PearsonCorrelation(freqs, gains);
    report.trend = FitLine(freqs, gains);
    std::vector<double> sorted = freqs;
    std::sort(sorted.begin(), sorted.end());
    double median = PercentileSorted(sorted, 0.5);
    double sum_hi = 0, sum_lo = 0;
    size_t n_hi = 0, n_lo = 0;
    for (size_t i = 0; i < freqs.size(); ++i) {
      if (freqs[i] >= median) {
        sum_hi += gains[i];
        ++n_hi;
      } else {
        sum_lo += gains[i];
        ++n_lo;
      }
    }
    if (n_hi > 0) report.mean_gain_frequent = sum_hi / n_hi;
    if (n_lo > 0) report.mean_gain_rare = sum_lo / n_lo;
  }
  return report;
}

MiscScalars ComputeMiscScalars(const api::Testbed& bed,
                               const std::vector<TopicAnalysis>& analyses) {
  MiscScalars scalars;
  std::vector<double> tprs, sizes;
  for (const TopicAnalysis& a : analyses) {
    tprs.push_back(a.component.tpr);
    sizes.push_back(static_cast<double>(a.component.graph_size));
  }
  scalars.mean_largest_cc_tpr = Mean(tprs);
  scalars.mean_graph_size = Mean(sizes);
  const std::shared_ptr<const api::GraphSnapshot> snapshot =
      bed.engine().CurrentSnapshot();
  scalars.reciprocal_link_rate = graph::ReciprocalLinkRate(snapshot->kb.csr());
  return scalars;
}

}  // namespace wqe::analysis
