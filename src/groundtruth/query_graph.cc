#include "groundtruth/query_graph.h"

#include <algorithm>

namespace wqe::groundtruth {

QueryGraph BuildQueryGraph(const wiki::KnowledgeBase& kb,
                           const std::vector<NodeId>& query_articles,
                           const std::vector<NodeId>& expansion_articles) {
  QueryGraph qg;
  qg.query_articles = query_articles;
  qg.expansion_articles = expansion_articles;
  auto add_article_with_context = [&](NodeId article) {
    qg.nodes.push_back(article);
    // Main article of a redirect (the paper includes both).
    NodeId main = kb.ResolveRedirect(article);
    if (main != article) qg.nodes.push_back(main);
    // Categories (redirects have none).
    for (NodeId cat : kb.CategoriesOf(main)) qg.nodes.push_back(cat);
  };
  for (NodeId q : query_articles) add_article_with_context(q);
  for (NodeId a : expansion_articles) add_article_with_context(a);

  std::sort(qg.nodes.begin(), qg.nodes.end());
  qg.nodes.erase(std::unique(qg.nodes.begin(), qg.nodes.end()),
                 qg.nodes.end());
  return qg;
}

}  // namespace wqe::groundtruth
