/// \file cycle_explorer.cpp
/// \brief Domain example: explore the graph structure behind one query.
///
/// Reproduces the paper's §3 walk-through (Figures 3 and 4) on a generated
/// topic: builds the ground truth for one query, assembles its query
/// graph, reports component structure and TPR, and prints concrete cycles
/// of each length with their category ratio and extra-edge density.

#include <cstdio>
#include <iostream>

#include "analysis/paper_report.h"
#include "analysis/query_graph_analysis.h"
#include "api/testbed.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "groundtruth/ground_truth.h"

using namespace wqe;

int main(int argc, char** argv) {
  size_t topic_index = argc > 1 ? static_cast<size_t>(std::atol(argv[1])) : 0;

  api::TestbedOptions options;
  options.wiki.num_domains = 24;
  options.track.num_topics = 12;
  options.track.background_docs = 400;
  auto bed_result = api::Testbed::Build(options);
  WQE_CHECK_OK(bed_result.status());
  const api::Testbed& bed = **bed_result;
  if (topic_index >= bed.num_topics()) topic_index = 0;

  groundtruth::GroundTruthBuilder builder(&bed);
  auto entry = builder.BuildEntry(topic_index);
  WQE_CHECK_OK(entry.status());

  const wiki::KnowledgeBase& kb = bed.kb();
  std::cout << "query " << entry->topic_id << ": \"" << entry->keywords
            << "\"\n";
  std::cout << "L(q.k):";
  for (auto a : entry->query_articles) {
    std::cout << " [" << kb.display_title(a) << "]";
  }
  std::cout << "\nX(q) expansion features (A'):";
  for (auto a : entry->xq.selected) {
    std::cout << " [" << kb.display_title(a) << "]";
  }
  std::cout << "\nO(X(q)) = " << entry->xq.quality << " vs unexpanded "
            << entry->xq.baseline_quality << "\n";

  // Build a one-topic ground truth so the analyzer can run on it.
  groundtruth::GroundTruth gt;
  gt.entries.push_back(std::move(*entry));
  analysis::QueryGraphAnalyzer analyzer(&bed, &gt);
  auto a = analyzer.Analyze(0);
  WQE_CHECK_OK(a.status());

  std::cout << "\nquery graph: " << a->component.graph_size << " nodes, "
            << a->component.num_components << " components\n";
  std::printf(
      "largest CC: %.0f%% of nodes, %.0f%% categories, TPR %.2f, expansion "
      "ratio %.2f\n",
      100 * a->component.relative_size, 100 * a->component.category_ratio,
      a->component.tpr, a->component.expansion_ratio);

  for (uint32_t len = 2; len <= 5; ++len) {
    std::cout << "\ncycles of length " << len << ": "
              << a->CountCycles(len) << "\n";
    size_t shown = 0;
    for (const analysis::CycleRecord& r : a->cycles) {
      if (r.cycle.length() != len || shown >= 2) continue;
      ++shown;
      std::cout << "  (";
      for (size_t i = 0; i < r.cycle.nodes.size(); ++i) {
        graph::NodeId n = r.cycle.nodes[i];
        if (i > 0) std::cout << " - ";
        std::cout << (kb.csr().IsCategory(n) ? "c:" : "")
                  << kb.display_title(n);
      }
      std::printf(")  cat-ratio %.2f, density %.2f, contribution %+.1f\n",
                  r.metrics.category_ratio, r.metrics.extra_edge_density,
                  r.contribution);
    }
  }
  return 0;
}
