#include "api/testbed.h"

#include <utility>

#include "clef/image_metadata.h"
#include "common/logging.h"
#include "common/macros.h"

namespace wqe::api {

Result<std::unique_ptr<Testbed>> Testbed::Build(
    const TestbedOptions& options) {
  std::unique_ptr<Testbed> bed(new Testbed());

  WQE_ASSIGN_OR_RETURN(wiki::SyntheticWikipedia wiki,
                       wiki::GenerateSyntheticWikipedia(options.wiki));
  WQE_ASSIGN_OR_RETURN(bed->track_,
                       clef::GenerateTrack(wiki, options.track));

  // The track generator is the last consumer of the generator provenance;
  // from here on only the KB itself is needed, and the engine owns it.
  WQE_ASSIGN_OR_RETURN(bed->engine_, Engine::Build(std::move(wiki.kb)));

  // Index the §2.1-extracted text of every metadata file.
  for (const clef::TrackDocument& doc : bed->track_.documents) {
    WQE_ASSIGN_OR_RETURN(clef::ImageMetadata meta,
                         clef::ParseImageMetadata(doc.xml));
    std::string text = clef::ExtractLinkedText(meta);
    WQE_ASSIGN_OR_RETURN(ir::DocId id,
                         bed->engine_->AddDocument(doc.name, text));
    (void)id;
  }
  WQE_RETURN_NOT_OK(bed->engine_->FinalizeIndex());

  // Resolve qrels to document ids.
  const ir::DocumentStore& store = bed->engine_->search_engine().store();
  bed->relevant_.resize(bed->track_.topics.size());
  for (size_t t = 0; t < bed->track_.topics.size(); ++t) {
    for (const std::string& name : bed->track_.topics[t].relevant) {
      auto id = store.FindByName(name);
      if (!id.has_value()) {
        return Status::Internal("qrel document '", name,
                                "' missing from the collection");
      }
      bed->relevant_[t].insert(*id);
    }
  }

  WQE_LOG(Info) << "testbed: " << bed->kb().num_articles() << " articles, "
                << bed->track_.documents.size() << " documents, "
                << bed->track_.topics.size() << " topics";
  return bed;
}

std::vector<EvalTopic> Testbed::EvalTopics() const {
  std::vector<EvalTopic> topics;
  topics.reserve(track_.topics.size());
  for (size_t t = 0; t < track_.topics.size(); ++t) {
    topics.push_back({track_.topics[t].keywords, relevant_[t]});
  }
  return topics;
}

}  // namespace wqe::api
