#include "api/evaluation.h"

#include "common/macros.h"

namespace wqe::api {

namespace {

/// Folds one response into the running sums.
struct Accumulator {
  std::array<double, 4> sums{};
  double o_sum = 0.0;
  double feature_sum = 0.0;
  size_t topics = 0;

  void Add(const QueryResponse& response, const ir::RelevantSet& d) {
    const std::vector<size_t>& cutoffs = ir::PaperRankCutoffs();
    for (size_t c = 0; c < cutoffs.size(); ++c) {
      sums[c] += ir::PrecisionAtR(response.docs, d, cutoffs[c]);
    }
    o_sum += ir::AverageTopRPrecision(response.docs, d);
    feature_sum +=
        static_cast<double>(response.expansion.feature_articles.size());
    ++topics;
  }
};

QueryRequest RequestFor(std::string_view expander,
                             const ExpanderOverrides& overrides,
                             const EvalTopic& topic) {
  QueryRequest request;
  request.keywords = topic.keywords;
  request.expander = std::string(expander);
  request.overrides = overrides;
  request.top_k = 15;
  return request;
}

}  // namespace

Result<SystemEvaluation> EvaluateSystem(
    const Engine& engine, std::string_view expander,
    const std::vector<EvalTopic>& topics,
    const ExpanderOverrides& overrides) {
  SystemEvaluation eval;
  eval.name = engine.ResolveStrategy(expander);
  Accumulator acc;
  Status first_error = Status::OK();
  for (const EvalTopic& topic : topics) {
    auto response = engine.Query(RequestFor(expander, overrides, topic));
    if (!response.ok()) {
      // A topic that cannot be evaluated (e.g. empty keywords or a query
      // with no analyzable terms) is skipped, as the paper does for
      // unlinkable queries; any other failure fails the evaluation.
      if (!response.status().IsInvalidArgument()) return response.status();
      if (first_error.ok()) first_error = response.status();
      continue;
    }
    acc.Add(*response, topic.relevant);
  }
  if (acc.topics == 0 && !first_error.ok()) {
    // Every topic failed: this is a request-level error (bad overrides,
    // unfinalized engine, ...), not per-topic skips — propagate it
    // rather than returning a plausible-looking all-zero evaluation.
    return first_error;
  }

  eval.topics = acc.topics;
  if (eval.topics > 0) {
    for (size_t c = 0; c < acc.sums.size(); ++c) {
      eval.mean_precision[c] =
          acc.sums[c] / static_cast<double>(eval.topics);
    }
    eval.mean_o = acc.o_sum / static_cast<double>(eval.topics);
    eval.mean_features =
        acc.feature_sum / static_cast<double>(eval.topics);
  }
  return eval;
}

}  // namespace wqe::api
