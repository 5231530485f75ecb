#include "groundtruth/ground_truth.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "common/logging.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace wqe::groundtruth {

namespace {

/// L(q.D): articles linked from the extracted text of the topic's
/// relevant documents, sorted and deduplicated.
std::vector<NodeId> LinkRelevantDocuments(const linking::EntityLinker& linker,
                                          const ir::DocumentStore& store,
                                          const ir::RelevantSet& relevant) {
  std::vector<NodeId> out;
  std::unordered_set<NodeId> seen;
  for (ir::DocId doc : relevant) {
    for (NodeId a : linker.LinkToArticles(store.Get(doc).text)) {
      if (seen.insert(a).second) out.push_back(a);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

Result<GroundTruthEntry> GroundTruthBuilder::BuildEntry(
    size_t topic_index) const {
  if (topic_index >= bed_->num_topics()) {
    return Status::OutOfRange("topic index ", topic_index, " out of range");
  }
  // One pin for the whole entry (see api::Engine::kb): a publish that
  // overlaps the build cannot mix two graph epochs into one entry.
  const std::shared_ptr<const api::GraphSnapshot> snapshot =
      bed_->engine().CurrentSnapshot();
  const wiki::KnowledgeBase& kb = snapshot->kb;
  const linking::EntityLinker& linker = *snapshot->linker;
  const ir::SearchEngine& search = bed_->engine().search_engine();
  const ir::RelevantSet& relevant = bed_->relevant(topic_index);

  const clef::Topic& topic = bed_->topic(topic_index);
  GroundTruthEntry entry;
  entry.topic_index = topic_index;
  entry.topic_id = topic.id;
  entry.keywords = topic.keywords;

  // §2.1 — entity linking.
  entry.query_articles = linker.LinkToArticles(topic.keywords);
  entry.doc_articles = LinkRelevantDocuments(linker, search.store(), relevant);

  // Candidates A' ⊆ L(q.D) \ L(q.k).
  std::unordered_set<NodeId> query_set(entry.query_articles.begin(),
                                       entry.query_articles.end());
  std::vector<NodeId> candidates;
  for (NodeId a : entry.doc_articles) {
    if (!query_set.count(a)) candidates.push_back(a);
  }

  // §2.2 — hill climb for X(q).
  XqOptimizer optimizer(&search, &kb, xq_options_);
  WQE_ASSIGN_OR_RETURN(
      entry.xq, optimizer.Optimize(entry.query_articles, candidates, relevant));

  // Final per-cutoff precisions (Table 2 rows).
  {
    std::vector<std::string> titles;
    for (NodeId a : entry.query_articles) {
      titles.push_back(kb.display_title(a));
    }
    for (NodeId a : entry.xq.selected) {
      titles.push_back(kb.display_title(a));
    }
    if (!titles.empty()) {
      WQE_ASSIGN_OR_RETURN(std::vector<ir::ScoredDoc> results,
                           search.SearchTitles(titles, 15));
      for (size_t r : ir::PaperRankCutoffs()) {
        entry.precision_at.push_back(ir::PrecisionAtR(results, relevant, r));
      }
    } else {
      entry.precision_at.assign(ir::PaperRankCutoffs().size(), 0.0);
    }
  }

  // §2.3 — query graph.
  entry.graph = BuildQueryGraph(kb, entry.query_articles, entry.xq.selected);
  return entry;
}

Result<GroundTruth> GroundTruthBuilder::Build() const {
  GroundTruth gt;
  gt.entries.reserve(bed_->num_topics());
  for (size_t t = 0; t < bed_->num_topics(); ++t) {
    WQE_ASSIGN_OR_RETURN(GroundTruthEntry entry, BuildEntry(t));
    WQE_LOG(Debug) << "topic " << entry.topic_id << " '" << entry.keywords
                   << "': |L(q.k)|=" << entry.query_articles.size()
                   << " |L(q.D)|=" << entry.doc_articles.size()
                   << " |A'|=" << entry.xq.selected.size()
                   << " O=" << entry.xq.quality
                   << " (baseline " << entry.xq.baseline_quality << ")";
    gt.entries.push_back(std::move(entry));
  }
  return gt;
}

std::string WriteGroundTruth(const GroundTruth& gt,
                             const wiki::KnowledgeBase& kb) {
  std::string out;
  for (const GroundTruthEntry& e : gt.entries) {
    std::vector<std::string> titles;
    for (NodeId a : e.xq.selected) titles.push_back(kb.display_title(a));
    out += std::to_string(e.topic_id);
    out += "\t";
    out += e.keywords;
    out += "\t";
    out += Join(titles, ";");
    out += "\t";
    out += FormatDouble(e.xq.quality, 4);
    out += "\t";
    out += FormatDouble(e.xq.baseline_quality, 4);
    out += "\n";
  }
  return out;
}

}  // namespace wqe::groundtruth
