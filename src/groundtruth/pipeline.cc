#include "groundtruth/pipeline.h"

#include <algorithm>
#include <thread>

#include "clef/image_metadata.h"
#include "common/logging.h"
#include "common/macros.h"
#include "serve/thread_pool.h"

namespace wqe::groundtruth {

Pipeline::~Pipeline() = default;

Result<std::unique_ptr<Pipeline>> Pipeline::Build(
    const PipelineOptions& options) {
  std::unique_ptr<Pipeline> p(new Pipeline());

  WQE_ASSIGN_OR_RETURN(p->wiki_, wiki::GenerateSyntheticWikipedia(options.wiki));
  WQE_ASSIGN_OR_RETURN(p->track_,
                       clef::GenerateTrack(p->wiki_, options.track));
  // Build time is over: freeze the structural snapshot the analyzers and
  // expanders read (the one-way builder→CSR bridge, see graph/csr.h).
  p->wiki_.kb.Freeze();

  // Index the §2.1-extracted text of every metadata file.
  p->engine_ = std::make_unique<ir::SearchEngine>(options.engine);
  for (const clef::TrackDocument& doc : p->track_.documents) {
    WQE_ASSIGN_OR_RETURN(clef::ImageMetadata meta,
                         clef::ParseImageMetadata(doc.xml));
    std::string text = clef::ExtractLinkedText(meta);
    WQE_ASSIGN_OR_RETURN(ir::DocId id,
                         p->engine_->AddDocument(doc.name, text));
    (void)id;
  }
  WQE_RETURN_NOT_OK(p->engine_->Finalize());

  p->linker_ = std::make_unique<linking::EntityLinker>(&p->wiki_.kb,
                                                       options.linker);

  // Resolve qrels to document ids.
  p->relevant_.resize(p->track_.topics.size());
  for (size_t t = 0; t < p->track_.topics.size(); ++t) {
    for (const std::string& name : p->track_.topics[t].relevant) {
      auto id = p->engine_->store().FindByName(name);
      if (!id.has_value()) {
        return Status::Internal("qrel document '", name,
                                "' missing from the collection");
      }
      p->relevant_[t].insert(*id);
    }
  }

  // Analysis parallelism: one experiment-shared pool.  Sized one short of
  // the knob because the analysis caller participates in its own fan-out
  // (caller + workers = num_threads analyzing threads).
  p->num_threads_ = options.num_threads != 0
                        ? options.num_threads
                        : std::max(1u, std::thread::hardware_concurrency());
  if (p->num_threads_ > 1) {
    p->pool_ = std::make_unique<serve::ThreadPool>(p->num_threads_ - 1);
  }

  WQE_LOG(Info) << "pipeline: " << p->wiki_.kb.num_articles() << " articles, "
                << p->track_.documents.size() << " documents, "
                << p->track_.topics.size() << " topics";
  return p;
}

}  // namespace wqe::groundtruth
