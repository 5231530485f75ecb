#pragma once

/// \file testbed.h
/// \brief Synthetic-experiment builder for the `api::Engine` facade.
///
/// Generates the Wikipedia-shaped knowledge base and the ImageCLEF-style
/// track, builds an Engine over them with default `EngineOptions` (KB +
/// linker + indexed metadata text), and keeps the evaluation fixture —
/// topics, resolved relevance judgments, and the generator's planted
/// provenance — next to it.  This
/// is the one experiment fixture: §4's expansion systems serve through
/// its engine, and the §2/§3 machinery (`groundtruth::GroundTruthBuilder`,
/// `analysis::QueryGraphAnalyzer`, the `analysis::paper_report`
/// aggregations) reads the engine's published snapshot and retrieval
/// index.  Nothing here depends on those layers.

#include <memory>
#include <vector>

#include "api/engine.h"
#include "api/evaluation.h"
#include "clef/track.h"
#include "clef/track_generator.h"
#include "common/result.h"
#include "ir/eval.h"
#include "wiki/synthetic.h"

namespace wqe::api {

/// \brief Aggregated configuration: the two generators.  The engine runs
/// with default `EngineOptions`.
struct TestbedOptions {
  wiki::SyntheticWikipediaOptions wiki;
  clef::TrackGeneratorOptions track;
};

/// \brief Engine + evaluation fixture (immutable after Build).
class Testbed {
 public:
  /// \brief Generates KB and track, builds and finalizes the engine, and
  /// resolves the qrels.
  static Result<std::unique_ptr<Testbed>> Build(const TestbedOptions& options);

  Engine& engine() { return *engine_; }
  const Engine& engine() const { return *engine_; }
  const wiki::KnowledgeBase& kb() const { return engine_->kb(); }
  const linking::EntityLinker& linker() const { return engine_->linker(); }

  const clef::Track& track() const { return track_; }
  size_t num_topics() const { return track_.topics.size(); }
  const clef::Topic& topic(size_t i) const { return track_.topics[i]; }

  /// \brief The judged set D of topic `i` (document ids).
  const ir::RelevantSet& relevant(size_t i) const { return relevant_[i]; }

  /// \brief The track as evaluation input for `api::EvaluateSystem`.
  std::vector<EvalTopic> EvalTopics() const;

 private:
  Testbed() = default;

  std::unique_ptr<Engine> engine_;
  clef::Track track_;
  std::vector<ir::RelevantSet> relevant_;
};

}  // namespace wqe::api
