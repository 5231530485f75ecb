#pragma once

/// \file evaluation.h
/// \brief Track-level evaluation of expansion strategies (E10/E11).
///
/// Runs a registry-named strategy through the `api::Engine` facade over a
/// set of evaluation topics, one `Engine::Query` per topic, and averages
/// the paper's precision metrics.

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "api/engine.h"
#include "ir/eval.h"

namespace wqe::api {

/// \brief One evaluation topic: the query and its judged set D.
struct EvalTopic {
  std::string keywords;
  ir::RelevantSet relevant;
};

/// \brief Aggregate retrieval quality of one system over all topics.
struct SystemEvaluation {
  std::string name;
  std::array<double, 4> mean_precision{};  ///< P@1, P@5, P@10, P@15
  double mean_o = 0.0;                     ///< Equation 1, averaged
  double mean_features = 0.0;              ///< avg |features| per topic
  size_t topics = 0;
};

/// \brief Evaluates registry strategy `expander` (with optional per-call
/// `overrides`) over `topics` and averages the precision metrics.  Topics
/// whose query cannot be evaluated (e.g. nothing survives analysis) are
/// skipped, mirroring the paper's handling of unlinkable queries.
Result<SystemEvaluation> EvaluateSystem(
    const Engine& engine, std::string_view expander,
    const std::vector<EvalTopic>& topics,
    const ExpanderOverrides& overrides = {});

}  // namespace wqe::api
