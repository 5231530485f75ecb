#include "expansion/cycle_expander.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/macros.h"
#include "graph/cycles.h"
#include "graph/undirected_view.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wqe::expansion {

namespace {
/// Query-ball materialization latency (neighborhood walk + undirected
/// slice), shared across expander instances.
obs::Histogram* BallExtractionHistogram() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "wqe.expansion.ball_extraction_ms");
  return histogram;
}

/// Work volume behind a request's enumeration: the query ball's size,
/// cycles the DFS visited and cycles that passed the structural filters,
/// one observation each per request.
obs::Histogram* BallNodesHistogram() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "wqe.expansion.ball_nodes");
  return histogram;
}
obs::Histogram* CyclesVisitedHistogram() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "wqe.expansion.cycles_visited");
  return histogram;
}
obs::Histogram* CyclesAcceptedHistogram() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "wqe.expansion.cycles_accepted");
  return histogram;
}
}  // namespace

bool CycleExpander::AcceptsCycle(const graph::CycleMetrics& metrics) const {
  if (metrics.length < options_.min_cycle_length ||
      metrics.length > options_.max_cycle_length) {
    return false;
  }
  if (metrics.length == 2) return true;
  if (metrics.category_ratio < options_.min_category_ratio ||
      metrics.category_ratio > options_.max_category_ratio) {
    return false;
  }
  if (metrics.length >= options_.min_density_from_length &&
      metrics.extra_edge_density < options_.min_density) {
    return false;
  }
  return true;
}

Result<std::vector<NodeId>> CycleExpander::SelectFeatures(
    const std::vector<NodeId>& query_articles) const {
  // The engine freezes the KB at build time; every request slices the same
  // shared snapshot — no per-request adjacency re-materialization.
  // A request that arrives already over budget does no work at all.
  WQE_RETURN_NOT_OK(common::ExecStatus());
  if (options_.max_cycle_length > kMaxCycleLength) {
    return Status::InvalidArgument("cycle expander: max_cycle_length (",
                                   options_.max_cycle_length, ") > ",
                                   kMaxCycleLength);
  }
  const graph::CsrGraph& csr = kb().csr();

  // 1. Neighborhood ball + its undirected slice, timed as one stage (the
  // cost the cache saves on a hit, alongside the enumeration itself).
  std::vector<NodeId> ball;
  std::optional<graph::UndirectedView> view_storage;
  {
    obs::Span span("ball-extraction", BallExtractionHistogram());
    ball = kb().Neighborhood(query_articles, options_.neighborhood_radius,
                             options_.max_neighborhood);
    view_storage.emplace(csr, ball);
  }
  const graph::UndirectedView& view = *view_storage;

  // 2. Cycles through a query article.
  graph::CycleEnumerationOptions enum_options;
  enum_options.min_length = options_.min_cycle_length;
  enum_options.max_length = options_.max_cycle_length;
  enum_options.seeds = query_articles;
  enum_options.max_cycles = options_.max_cycles;
  enum_options.prune_ball = options_.prune_ball;
  graph::CycleEnumerator enumerator(view);

  // 3. Score each cycle from the ball's pair table and accumulate
  // per-article, per-length quality-weighted cycle counts, indexed by
  // local id.  Tallies grow in emission order, so the floating sums do not
  // depend on how a cycle was scored.
  const graph::BallCycleScorer scorer(view);
  const uint32_t n = view.num_nodes();
  std::vector<uint8_t> is_candidate(n);  // an article, not a query article
  for (uint32_t l = 0; l < n; ++l) {
    is_candidate[l] = view.kind(l) == graph::NodeKind::kArticle;
  }
  for (NodeId q : query_articles) {
    const uint32_t l = view.ToLocal(q);
    if (l != UINT32_MAX) is_candidate[l] = 0;
  }
  struct PerLength {
    std::array<double, kMaxCycleLength + 1> weight_sum{};  // index = length
    std::array<uint32_t, kMaxCycleLength + 1> count{};
  };
  std::vector<PerLength> tallies(n);
  size_t accepted = 0;
  WQE_FAULT_POINT("expansion.enumeration");
  const size_t visited =
      enumerator.Visit(enum_options, [&](const std::vector<uint32_t>& local) {
        const graph::CycleMetrics metrics = scorer.Score(local);
        if (!AcceptsCycle(metrics)) return true;
        ++accepted;
        const double quality = metrics.length == 2
                                   ? options_.two_cycle_weight
                                   : 1.0 + metrics.extra_edge_density;
        for (uint32_t l : local) {
          if (!is_candidate[l]) continue;
          tallies[l].weight_sum[metrics.length] += quality;
          ++tallies[l].count[metrics.length];
        }
        return true;
      });
  BallNodesHistogram()->Record(static_cast<double>(ball.size()));
  CyclesVisitedHistogram()->Record(static_cast<double>(visited));
  CyclesAcceptedHistogram()->Record(static_cast<double>(accepted));
  // An enumeration truncated by a deadline/cancel interruption has seen
  // only a prefix of the cycles; a ranking built from it must never be
  // reported as success.  Surface the interruption as the request status.
  WQE_RETURN_NOT_OK(common::ExecStatus());

  // 4. Score: decayed by length, damped by sqrt of the count so that one
  // rare tight structure outranks dozens of loose long cycles.  Only
  // articles on at least one accepted cycle are ranked.
  std::vector<std::pair<NodeId, double>> ranked;
  for (uint32_t l = 0; l < n; ++l) {
    const PerLength& t = tallies[l];
    bool on_accepted_cycle = false;
    double score = 0.0;
    for (uint32_t len = 2; len <= kMaxCycleLength; ++len) {
      if (t.count[len] == 0) continue;
      on_accepted_cycle = true;
      double mean_quality =
          t.weight_sum[len] / static_cast<double>(t.count[len]);
      double volume = options_.sqrt_count_damping
                          ? std::sqrt(static_cast<double>(t.count[len]))
                          : static_cast<double>(t.count[len]);
      score += std::pow(options_.length_decay, static_cast<double>(len - 2)) *
               mean_quality * volume;
    }
    if (on_accepted_cycle) ranked.emplace_back(view.ToGlobal(l), score);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  std::vector<NodeId> features;
  for (const auto& [article, weight] : ranked) {
    (void)weight;
    if (features.size() >= options_.max_features) break;
    features.push_back(article);
  }

  // Optional §4 extension: redirect aliases of the strongest features, in
  // rank order.
  if (options_.include_redirect_aliases) {
    size_t aliases_added = 0;
    size_t base = features.size();
    for (size_t i = 0; i < base && aliases_added < options_.max_alias_features;
         ++i) {
      for (NodeId alias : kb().RedirectsOf(features[i])) {
        if (aliases_added >= options_.max_alias_features) break;
        features.push_back(alias);
        ++aliases_added;
      }
    }
  }
  return features;
}

}  // namespace wqe::expansion
