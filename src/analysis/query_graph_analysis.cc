#include "analysis/query_graph_analysis.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/macros.h"
#include "groundtruth/xq_optimizer.h"
#include "serve/thread_pool.h"

namespace wqe::analysis {

size_t TopicAnalysis::CountCycles(uint32_t length) const {
  size_t n = 0;
  for (const CycleRecord& r : cycles) {
    if (r.cycle.length() == length) ++n;
  }
  return n;
}

Result<TopicAnalysis> QueryGraphAnalyzer::Analyze(size_t topic_index) const {
  if (topic_index >= gt_->entries.size()) {
    return Status::OutOfRange("topic index ", topic_index, " out of range");
  }
  const groundtruth::GroundTruthEntry& entry = gt_->entries[topic_index];
  // Qrels are looked up by the entry's own track index, which may differ
  // from its position in this (possibly partial) ground truth.
  const ir::RelevantSet& relevant = bed_->relevant(entry.topic_index);
  const groundtruth::QueryGraph& qg = entry.graph;
  // One pin for the whole topic (see api::Engine::kb).
  const std::shared_ptr<const api::GraphSnapshot> snapshot =
      bed_->engine().CurrentSnapshot();
  const wiki::KnowledgeBase& kb = snapshot->kb;
  // The query graph's structure is analyzed, undirected as in §3, as an
  // induced slice of the KB's frozen snapshot — no per-topic adjacency
  // re-materialization; the view's locals map straight back to KB node ids.
  const graph::CsrGraph& csr = kb.csr();
  graph::UndirectedView view(csr, qg.nodes);

  TopicAnalysis out;
  out.topic_index = topic_index;

  // --- Largest connected component (Table 3). ---
  graph::ComponentsResult comps = graph::ConnectedComponents(view);
  out.component.graph_size = view.num_nodes();
  out.component.num_components = comps.num_components();
  if (view.num_nodes() > 0 && comps.num_components() > 0) {
    std::vector<uint32_t> cc = comps.LargestComponent();
    std::unordered_set<uint32_t> cc_set(cc.begin(), cc.end());
    out.component.relative_size = static_cast<double>(cc.size()) /
                                  static_cast<double>(view.num_nodes());

    size_t articles = 0, categories = 0;
    for (uint32_t local : cc) {
      if (view.kind(local) == graph::NodeKind::kArticle) {
        ++articles;
      } else {
        ++categories;
      }
    }
    out.component.article_ratio =
        static_cast<double>(articles) / static_cast<double>(cc.size());
    out.component.category_ratio =
        static_cast<double>(categories) / static_cast<double>(cc.size());

    size_t query_in_cc = 0;
    for (NodeId q : qg.query_articles) {
      uint32_t local = view.ToLocal(q);
      if (local != UINT32_MAX && cc_set.count(local)) ++query_in_cc;
    }
    out.component.query_node_ratio =
        qg.query_articles.empty()
            ? 0.0
            : static_cast<double>(query_in_cc) /
                  static_cast<double>(qg.query_articles.size());

    size_t expansion_in_cc = 0;
    for (NodeId a : qg.expansion_articles) {
      uint32_t local = view.ToLocal(a);
      if (local != UINT32_MAX && cc_set.count(local)) ++expansion_in_cc;
    }
    out.component.expansion_ratio =
        query_in_cc == 0 ? 0.0
                         : static_cast<double>(expansion_in_cc) /
                               static_cast<double>(query_in_cc);
    out.component.tpr = graph::TriangleParticipationRatio(view, cc);
  }

  // --- Cycles touching a query article. ---
  graph::CycleEnumerationOptions cycle_options;
  cycle_options.min_length = kMinCycleLength;
  cycle_options.max_length = kMaxCycleLength;
  cycle_options.seeds = qg.query_articles;
  graph::CycleEnumerator enumerator(view);
  std::vector<graph::Cycle> cycles = enumerator.Enumerate(cycle_options);

  // Contribution: O(L(q.k) ∪ articles(C)) vs O(L(q.k)); categories in C are
  // ignored (paper footnote 3). Memoized by article set.
  groundtruth::XqOptimizer evaluator(&bed_->engine().search_engine(), &kb);
  WQE_ASSIGN_OR_RETURN(
      out.baseline_quality,
      evaluator.EvaluateArticles(entry.query_articles, relevant));

  std::unordered_map<std::string, double> memo;
  size_t scored = 0;
  for (graph::Cycle& cycle : cycles) {
    CycleRecord record;
    // The view's globals are KB node ids already.
    record.metrics = graph::ComputeCycleMetrics(csr, cycle);

    // Articles of this cycle (KB ids), for Table 4's length buckets.
    std::vector<NodeId> cycle_articles;
    bool introduces_feature = false;
    for (NodeId n : cycle.nodes) {
      if (!csr.IsArticle(n)) continue;
      cycle_articles.push_back(n);
      if (std::find(entry.query_articles.begin(), entry.query_articles.end(),
                    n) == entry.query_articles.end()) {
        introduces_feature = true;
      }
    }
    // Cycles whose articles are all query articles introduce no expansion
    // feature; they say nothing about feature quality, so they are
    // excluded from the records (their "contribution" is 0 by definition).
    if (!introduces_feature) continue;
    auto& bucket = out.articles_by_length[cycle.length()];
    for (NodeId a : cycle_articles) {
      if (std::find(bucket.begin(), bucket.end(), a) == bucket.end()) {
        bucket.push_back(a);
      }
    }

    bool score_this = options_.max_scored_cycles == 0 ||
                      scored < options_.max_scored_cycles;
    if (score_this) {
      ++scored;
      std::vector<NodeId> with_cycle = entry.query_articles;
      for (NodeId a : cycle_articles) {
        if (std::find(entry.query_articles.begin(),
                      entry.query_articles.end(),
                      a) == entry.query_articles.end()) {
          with_cycle.push_back(a);
        }
      }
      std::sort(with_cycle.begin() + static_cast<ptrdiff_t>(
                                         entry.query_articles.size()),
                with_cycle.end());
      std::string key;
      for (NodeId n : with_cycle) {
        key += std::to_string(n);
        key += ",";
      }
      auto it = memo.find(key);
      double quality;
      if (it != memo.end()) {
        quality = it->second;
      } else {
        WQE_ASSIGN_OR_RETURN(quality,
                             evaluator.EvaluateArticles(with_cycle, relevant));
        memo.emplace(std::move(key), quality);
      }
      // "Percentual difference" interpreted as percentage points of O
      // (bounded in [-100, 100]); the relative reading explodes for
      // near-zero baselines and makes topics incomparable.
      record.contribution = 100.0 * (quality - out.baseline_quality);
    }
    record.cycle = std::move(cycle);
    out.cycles.push_back(std::move(record));
  }
  return out;
}

Result<std::vector<TopicAnalysis>> QueryGraphAnalyzer::AnalyzeAll() const {
  const size_t num_topics = gt_->entries.size();
  const size_t threads =
      options_.num_threads != 0
          ? options_.num_threads
          : std::max(1u, std::thread::hardware_concurrency());
  if (threads <= 1 || num_topics < 2) {
    std::vector<TopicAnalysis> out;
    out.reserve(num_topics);
    for (size_t t = 0; t < num_topics; ++t) {
      WQE_ASSIGN_OR_RETURN(TopicAnalysis a, Analyze(t));
      out.push_back(std::move(a));
    }
    return out;
  }

  // Fan topics across a pool made for this call (atomic-cursor stealing:
  // topic cost is wildly skewed by ball size).  Every participant —
  // including this thread — analyzes the topics it claims sequentially.
  // Results land in topic order; errors are all collected and the lowest
  // failing index reports, matching the first error a sequential run
  // would return.
  std::vector<Result<TopicAnalysis>> results(
      num_topics, Result<TopicAnalysis>(TopicAnalysis{}));
  std::atomic<size_t> cursor{0};
  auto claim_topics = [&] {
    for (;;) {
      const size_t t = cursor.fetch_add(1, std::memory_order_relaxed);
      if (t >= num_topics) return;
      results[t] = Analyze(t);
    }
  };
  {
    serve::ThreadPool pool(std::min(threads, num_topics) - 1);
    std::vector<std::future<void>> futures;
    futures.reserve(pool.num_threads());
    for (size_t i = 0; i < pool.num_threads(); ++i) {
      futures.push_back(pool.Submit(claim_topics));
    }
    claim_topics();
    for (std::future<void>& f : futures) f.get();
  }

  std::vector<TopicAnalysis> out;
  out.reserve(num_topics);
  for (size_t t = 0; t < num_topics; ++t) {
    if (!results[t].ok()) return results[t].status();
    out.push_back(std::move(*results[t]));
  }
  return out;
}

}  // namespace wqe::analysis
