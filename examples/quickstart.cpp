/// \file quickstart.cpp
/// \brief Minimal tour of the public API: build, index, expand, query.
///
/// Builds an `api::Engine` over a small synthetic Wikipedia + ImageCLEF
/// style track (via `api::Testbed`), then serves one topic through two
/// registry strategies — the unexpanded baseline and the paper's
/// dense-cycle expansion — and prints what changed.  Start here.

#include <iostream>

#include "api/testbed.h"
#include "common/macros.h"
#include "ir/eval.h"

using namespace wqe;

int main() {
  // 1. Build the serving stack: a synthetic Wikipedia-shaped knowledge
  //    base, a generated image-retrieval track, and an Engine owning the
  //    KB, the entity linker, the retrieval index and the expander
  //    registry.  (To serve your own corpus, call api::Engine::Build with
  //    a KnowledgeBase and AddDocument/FinalizeIndex directly.)
  api::TestbedOptions options;
  options.wiki.num_domains = 16;
  options.track.num_topics = 8;
  options.track.background_docs = 200;
  auto bed_result = api::Testbed::Build(options);
  WQE_CHECK_OK(bed_result.status());
  api::Testbed& bed = **bed_result;
  const api::Engine& engine = bed.engine();

  std::cout << "Knowledge base: " << engine.kb().num_articles()
            << " articles, " << engine.kb().num_categories()
            << " categories, " << engine.kb().num_redirects()
            << " redirects\n";
  std::cout << "Collection: " << engine.search_engine().store().size()
            << " image-metadata documents, " << bed.num_topics()
            << " topics\n";
  std::cout << "Strategies:";
  for (const std::string& name : engine.registry().Names()) {
    std::cout << " " << name;
  }
  std::cout << "\n\n";

  // 2. Take the first topic and serve it unexpanded vs cycle-expanded.
  const clef::Topic& topic = bed.topic(0);
  std::cout << "Topic " << topic.id << ": \"" << topic.keywords << "\"\n";

  for (const char* strategy : {"no-expansion", "cycle"}) {
    api::QueryRequest request;
    request.keywords = topic.keywords;
    request.expander = strategy;
    auto response = engine.Query(request);
    WQE_CHECK_OK(response.status());
    double o = ir::AverageTopRPrecision(response->docs, bed.relevant(0));
    double p10 = ir::PrecisionAtR(response->docs, bed.relevant(0), 10);

    std::cout << "\n[" << response->expansion.expander << "]\n";
    std::cout << "  features:";
    if (response->expansion.feature_articles.empty()) std::cout << " (none)";
    for (graph::NodeId f : response->expansion.feature_articles) {
      std::cout << " \"" << engine.kb().display_title(f) << "\"";
    }
    std::cout << "\n  O(A,D) = " << o << ", P@10 = " << p10 << "\n";
  }
  return 0;
}
