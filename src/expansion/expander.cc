#include "expansion/expander.h"

#include "common/macros.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wqe::expansion {

namespace {
/// Entity-linking latency, L(k) of the paper, shared across expanders.
obs::Histogram* LinkingHistogram() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "wqe.expansion.linking_ms");
  return histogram;
}
}  // namespace

Result<ExpandedQuery> Expander::Expand(std::string_view keywords) const {
  ExpandedQuery out;
  {
    obs::Span span("linking", LinkingHistogram());
    out.query_articles = linker().LinkToArticles(keywords);
  }

  if (out.query_articles.empty()) {
    // Nothing linked: retrieval proceeds with the raw keywords.
    out.titles.push_back(std::string(keywords));
    out.query = ir::QueryNode::CombinePhrases(out.titles);
    if (out.query.children.empty()) {
      return Status::InvalidArgument("empty keywords");
    }
    return out;
  }

  WQE_ASSIGN_OR_RETURN(out.feature_articles,
                       SelectFeatures(out.query_articles));

  for (NodeId q : out.query_articles) {
    out.titles.push_back(kb().display_title(q));
  }
  for (NodeId f : out.feature_articles) {
    out.titles.push_back(kb().display_title(f));
  }
  out.query = ir::QueryNode::CombinePhrases(out.titles);
  return out;
}

}  // namespace wqe::expansion
