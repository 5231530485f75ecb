#pragma once

/// \file pipeline.h
/// \brief Internal experiment fixture for the §2/§3 machinery.
///
/// Wires together everything the ground-truth construction and the
/// query-graph analysis need: the (synthetic) Wikipedia, the (synthetic)
/// ImageCLEF-style track, the retrieval engine indexed over the extracted
/// document text, the entity linker, and the per-topic relevance
/// judgments.
///
/// This is NOT the public entry point.  Serving-style callers — examples,
/// benches, expansion tests — build an `api::Engine` (via `api::Testbed`
/// for synthetic experiments) and select expansion strategies through its
/// registry; the Pipeline remains as the fixture that
/// `groundtruth::GroundTruthBuilder` and `analysis::QueryGraphAnalyzer`
/// consume.

#include <memory>
#include <vector>

#include "clef/track.h"
#include "clef/track_generator.h"
#include "common/result.h"
#include "ir/eval.h"
#include "ir/search_engine.h"
#include "linking/entity_linker.h"
#include "wiki/synthetic.h"

namespace wqe::serve {
class ThreadPool;  // fwd: the fixture only owns and hands down a pool
}  // namespace wqe::serve

namespace wqe::groundtruth {

/// \brief Aggregated configuration.
struct PipelineOptions {
  wiki::SyntheticWikipediaOptions wiki;
  clef::TrackGeneratorOptions track;
  ir::SearchEngineOptions engine;
  linking::EntityLinkerOptions linker;
  /// Worker threads for the §3 analysis's per-topic fan-out
  /// (`analysis::QueryGraphAnalyzer::AnalyzeAll`): 1 = sequential
  /// (default), 0 = one per hardware thread.  When != 1 the pipeline owns
  /// a `serve::ThreadPool` that the analyzer inherits — one pool per
  /// experiment instead of one per call.
  uint32_t num_threads = 1;
};

/// \brief Built experiment context (immutable after Build).
class Pipeline {
 public:
  /// \brief Generates the knowledge base and track, extracts and indexes
  /// the document text, and resolves the relevance judgments.
  static Result<std::unique_ptr<Pipeline>> Build(
      const PipelineOptions& options);

  /// Out of line: owns a forward-declared `serve::ThreadPool`.
  ~Pipeline();

  const wiki::SyntheticWikipedia& wiki() const { return wiki_; }
  const wiki::KnowledgeBase& kb() const { return wiki_.kb; }
  const clef::Track& track() const { return track_; }
  const ir::SearchEngine& engine() const { return *engine_; }
  const linking::EntityLinker& linker() const { return *linker_; }

  size_t num_topics() const { return track_.topics.size(); }
  const clef::Topic& topic(size_t i) const { return track_.topics[i]; }

  /// \brief The judged set D of topic `i` (document ids).
  const ir::RelevantSet& relevant(size_t i) const { return relevant_[i]; }

  /// \brief Extracted (indexable/linkable) text of a document.
  const std::string& doc_text(ir::DocId doc) const {
    return engine_->store().Get(doc).text;
  }

  /// \brief The configured analysis thread count (resolved: never 0).
  uint32_t num_threads() const { return num_threads_; }

  /// \brief The experiment-shared analysis pool; null when sequential.
  serve::ThreadPool* pool() const { return pool_.get(); }

 private:
  Pipeline() = default;

  wiki::SyntheticWikipedia wiki_;
  clef::Track track_;
  std::unique_ptr<ir::SearchEngine> engine_;
  std::unique_ptr<linking::EntityLinker> linker_;
  std::vector<ir::RelevantSet> relevant_;
  uint32_t num_threads_ = 1;
  std::unique_ptr<serve::ThreadPool> pool_;  ///< null when num_threads_ == 1
};

}  // namespace wqe::groundtruth
