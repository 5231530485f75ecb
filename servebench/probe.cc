#include "probe.h"

#include <memory>
#include <optional>
#include <utility>

#include "common/macros.h"
#include "expansion/cycle_expander.h"
#include "graph/ball_prune.h"
#include "graph/cycle_metrics.h"
#include "graph/cycles.h"
#include "graph/undirected_view.h"
#include "serve/expansion_cache.h"
#include "stats.h"

namespace servebench {

namespace {

using Clock = SpanLog::Clock;

/// Times `fn`, records a span under `parent` when tracing, returns ms.
template <typename Fn>
double Timed(SpanLog* spans, const char* name, uint64_t parent, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  const Clock::time_point end = Clock::now();
  if (spans != nullptr) spans->Add(name, parent, start, end);
  return Millis(start, end);
}

wqe::api::ExpandResponse ToResponse(wqe::expansion::ExpandedQuery expanded) {
  wqe::api::ExpandResponse response;
  response.expander = "cycle";
  response.query_articles = std::move(expanded.query_articles);
  response.feature_articles = std::move(expanded.feature_articles);
  response.titles = std::move(expanded.titles);
  response.query = std::move(expanded.query);
  return response;
}

}  // namespace

wqe::Result<ProbeResult> ProbeLayers(const wqe::api::Engine& engine,
                                     const Inputs& inputs,
                                     const std::vector<uint32_t>& distinct,
                                     const StreamResult& traced,
                                     size_t min_samples, SpanLog* spans) {
  WQE_CHECK(!distinct.empty());
  const size_t num_topics = inputs.keywords.size();
  std::vector<uint64_t> root_of_topic(num_topics, 0);
  for (size_t i = traced.root_span.size(); i-- > 0;) {
    root_of_topic[traced.topics[i]] = traced.root_span[i];
  }

  std::shared_ptr<const wqe::api::GraphSnapshot> pin = engine.CurrentSnapshot();
  const wqe::wiki::KnowledgeBase& kb = pin->kb;
  const wqe::graph::CsrGraph& csr = kb.csr();
  WQE_ASSIGN_OR_RETURN(std::unique_ptr<wqe::expansion::Expander> expander,
                       engine.BuildExpander(*pin, "cycle", {}));
  const auto* cycle_expander =
      dynamic_cast<const wqe::expansion::CycleExpander*>(expander.get());
  if (cycle_expander == nullptr) {
    return wqe::Status::Internal("the \"cycle\" strategy is not a CycleExpander");
  }
  const wqe::expansion::CycleExpanderOptions& options =
      cycle_expander->options();
  const size_t top_k = engine.options().default_top_k;

  ProbeResult out;
  std::vector<std::vector<double>> expand_samples(num_topics);
  std::vector<std::vector<double>> search_samples(num_topics);
  std::vector<wqe::api::ExpandResponse> expansion_of(num_topics);
  size_t graph_calls = 0;
  // Rep-major passes, so consecutive calls of a layer touch different
  // requests, as they do in the stream.
  for (size_t i = 0;; ++i) {
    if (i == distinct.size() && graph_calls == 0) {
      return wqe::Status::Internal("no request links to an article");
    }
    if (i >= distinct.size() && i >= min_samples &&
        graph_calls >= min_samples) {
      break;
    }
    const uint32_t topic = distinct[i % distinct.size()];
    const bool first_pass = i < distinct.size();
    const std::string& keywords = inputs.keywords[topic];
    const uint64_t parent = root_of_topic[topic];

    std::vector<wqe::graph::NodeId> query_articles;
    out.link_ms.push_back(Timed(spans, "linking.link", parent, [&] {
      query_articles = pin->linker->LinkToArticles(keywords);
    }));
    if (!query_articles.empty()) {
      std::vector<wqe::graph::NodeId> ball;
      std::optional<wqe::graph::UndirectedView> view;
      out.ball_ms.push_back(Timed(spans, "wiki.ball", parent, [&] {
        ball = kb.Neighborhood(query_articles, options.neighborhood_radius,
                               options.max_neighborhood);
        view.emplace(csr, ball);
      }));
      std::vector<uint64_t> alive;
      wqe::graph::BallPruneStats pruned;
      const double prune_ms = Timed(spans, "graph.prune", parent, [&] {
        pruned = wqe::graph::PruneBall(*view, query_articles,
                                       options.max_cycle_length, &alive);
      });
      out.prune_ms.push_back(prune_ms);

      wqe::graph::CycleEnumerationOptions enumeration;
      enumeration.min_length = options.min_cycle_length;
      enumeration.max_length = options.max_cycle_length;
      enumeration.seeds = query_articles;
      enumeration.max_cycles = options.max_cycles;
      enumeration.prune_ball = options.prune_ball;
      const wqe::graph::CycleEnumerator enumerator(*view);
      size_t visited = 0;
      const double visit_ms = Timed(spans, "graph.dfs", parent, [&] {
        visited = enumerator.Visit(
            enumeration, [](const std::vector<uint32_t>&) { return true; });
      });
      out.dfs_ms.push_back(visit_ms - prune_ms);

      const std::vector<wqe::graph::Cycle> cycles =
          enumerator.Enumerate(enumeration);
      size_t accepted = 0;
      const double scoring_ms = Timed(spans, "graph.scoring", parent, [&] {
        for (const wqe::graph::Cycle& cycle : cycles) {
          if (cycle_expander->AcceptsCycle(
                  wqe::graph::ComputeCycleMetrics(csr, cycle))) {
            ++accepted;
          }
        }
      });
      out.scoring_ms.push_back(scoring_ms);
      ++graph_calls;
      if (first_pass) {
        out.ball_nodes += ball.size();
        out.prune_survivors += pruned.num_alive;
        out.cycles_visited += visited;
        out.cycles_accepted += accepted;
      }
    }

    wqe::Result<wqe::expansion::ExpandedQuery> expanded =
        wqe::Status::Internal("not run");
    const double expand_ms = Timed(spans, "expansion.expand", parent,
                                   [&] { expanded = expander->Expand(keywords); });
    WQE_RETURN_NOT_OK(expanded.status());
    out.expand_ms.push_back(expand_ms);
    expand_samples[topic].push_back(expand_ms);
    if (!query_articles.empty()) {
      const size_t n = out.scoring_ms.size();
      out.expand_self_ms.push_back(expand_ms - out.link_ms.back() -
                                   out.ball_ms[n - 1] - out.prune_ms[n - 1] -
                                   out.dfs_ms[n - 1] - out.scoring_ms[n - 1]);
    }

    wqe::Result<std::vector<wqe::ir::ScoredDoc>> docs =
        wqe::Status::Internal("not run");
    const double search_ms = Timed(spans, "ir.search", parent, [&] {
      docs = engine.search_engine().Search(expanded->query, top_k);
    });
    WQE_RETURN_NOT_OK(docs.status());
    out.search_ms.push_back(search_ms);
    search_samples[topic].push_back(search_ms);
    if (first_pass) expansion_of[topic] = ToResponse(std::move(*expanded));
  }

  out.expand_cost_ms.assign(num_topics, 0.0);
  out.search_cost_ms.assign(num_topics, 0.0);
  for (uint32_t topic : distinct) {
    out.expand_cost_ms[topic] = Median(expand_samples[topic]);
    out.search_cost_ms[topic] = Median(search_samples[topic]);
  }

  // Replay the traced stream's cache traffic: the same keys, an empty
  // cache where the stream had a fresh server, and a generation bump
  // where it published.  Counters are not read: the timings and the
  // per-request outcome are.
  wqe::serve::ExpansionCache cache;
  uint64_t generation = 1;
  size_t next_reset = 0;
  size_t next_publish = 0;
  const std::string strategy = engine.ResolveStrategy("");
  out.replay_miss.reserve(traced.topics.size());
  out.cache_get_us.reserve(traced.topics.size());
  for (size_t i = 0; i < traced.topics.size(); ++i) {
    if (next_reset < traced.reset_at.size() &&
        traced.reset_at[next_reset] == i) {
      cache.Clear();
      ++next_reset;
    }
    if (next_publish < traced.publish_at.size() &&
        traced.publish_at[next_publish] == i) {
      ++generation;
      ++next_publish;
    }
    const uint32_t topic = traced.topics[i];
    const wqe::serve::ExpansionCache::Key key{inputs.keywords[topic], strategy,
                                              {}};
    bool hit = false;
    const uint64_t parent = i < traced.root_span.size() ? traced.root_span[i] : 0;
    const double get_ms = Timed(spans, "serve.cache_get", parent, [&] {
      std::shared_ptr<const wqe::api::ExpandResponse> entry =
          cache.Get(key, generation);
      if (entry != nullptr) {
        const wqe::api::ExpandResponse copy = *entry;  // as a server hit does
        hit = copy.expander == strategy;
      }
    });
    out.cache_get_us.push_back(get_ms * 1e3);
    out.replay_miss.push_back(!hit);
    if (!hit) cache.Put(key, expansion_of[topic], generation);
  }
  return out;
}

}  // namespace servebench
