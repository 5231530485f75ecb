#include "wiki/knowledge_base.h"

#include <unordered_set>

#include "common/macros.h"
#include "common/string_util.h"

namespace wqe::wiki {

namespace {

constexpr std::string_view kCategoryPrefix = "category:";

/// The nodes of one CSR row whose edge kind is `kind`, in row order.
std::vector<NodeId> RowOfKind(std::span<const NodeId> nodes,
                              std::span<const graph::EdgeKind> kinds,
                              graph::EdgeKind kind) {
  std::vector<NodeId> out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (kinds[i] == kind) out.push_back(nodes[i]);
  }
  return out;
}

}  // namespace

Status KnowledgeBase::CheckMutable() const {
  if (frozen()) {
    return Status::InvalidArgument(
        "knowledge base is frozen (Freeze() is one-way); finish building "
        "before freezing");
  }
  return Status::OK();
}

const graph::CsrGraph& KnowledgeBase::Freeze() {
  if (builder_) {
    csr_ = graph::CsrGraph::Freeze(*builder_);
    builder_.reset();
  }
  return csr_;
}

const graph::CsrGraph& KnowledgeBase::csr() const {
  WQE_CHECK(frozen());  // Freeze() is the builder→serving bridge
  return csr_;
}

Result<KnowledgeBase> KnowledgeBase::FromSnapshot(
    graph::CsrGraph csr, std::vector<std::string> labels,
    std::vector<std::string> display_titles, size_t num_articles,
    size_t num_redirects, size_t num_categories) {
  const size_t n = csr.num_nodes();
  if (labels.size() != n || display_titles.size() != n) {
    return Status::InvalidArgument(
        "snapshot carries ", labels.size(), " labels and ",
        display_titles.size(), " display titles for ", n, " nodes");
  }
  const graph::CsrSections sections = csr.Sections();
  if (num_articles + num_redirects != sections.node_kind_counts[0] ||
      num_categories != sections.node_kind_counts[1]) {
    return Status::InvalidArgument(
        "snapshot entity counts (", num_articles, " articles + ",
        num_redirects, " redirects, ", num_categories,
        " categories) disagree with the graph's node kinds (",
        sections.node_kind_counts[0], " articles, ",
        sections.node_kind_counts[1], " categories)");
  }
  KnowledgeBase kb;
  kb.builder_.reset();
  kb.csr_ = std::move(csr);
  kb.num_articles_ = num_articles;
  kb.num_redirects_ = num_redirects;
  kb.num_categories_ = num_categories;
  kb.labels_ = std::move(labels);
  kb.display_titles_ = std::move(display_titles);
  // Rebuild the title index exactly as the builder populated it: the raw
  // label for articles, "category:"-prefixed for categories.
  kb.title_index_.reserve(n);
  for (NodeId u = 0; u < n; ++u) {
    std::string key = kb.csr_.IsCategory(u)
                          ? std::string(kCategoryPrefix) + kb.labels_[u]
                          : kb.labels_[u];
    auto [it, inserted] = kb.title_index_.emplace(std::move(key), u);
    if (!inserted) {
      return Status::InvalidArgument("snapshot title '", it->first,
                                     "' appears on nodes ", it->second,
                                     " and ", u);
    }
  }
  return kb;
}

Result<NodeId> KnowledgeBase::AddEntry(graph::NodeKind kind,
                                       std::string_view title,
                                       std::string_view index_key) {
  WQE_RETURN_NOT_OK(CheckMutable());
  std::string key(index_key);
  if (key.empty() ||
      (kind == graph::NodeKind::kCategory &&
       key.size() == kCategoryPrefix.size())) {
    return Status::InvalidArgument("empty title");
  }
  auto it = title_index_.find(key);
  if (it != title_index_.end()) {
    return Status::AlreadyExists("title '", key, "' already exists as node ",
                                 it->second);
  }
  // The label lives in `labels_`, not on the builder node, so it outlives
  // the builder.
  NodeId id = builder_->AddNode(kind, {});
  labels_.emplace_back(kind == graph::NodeKind::kCategory
                           ? index_key.substr(kCategoryPrefix.size())
                           : index_key);
  display_titles_.emplace_back(title);
  title_index_.emplace(std::move(key), id);
  return id;
}

Result<NodeId> KnowledgeBase::AddArticle(std::string_view title) {
  std::string norm = NormalizeTitle(title);
  WQE_ASSIGN_OR_RETURN(NodeId id,
                       AddEntry(graph::NodeKind::kArticle, title, norm));
  ++num_articles_;
  return id;
}

Result<NodeId> KnowledgeBase::AddCategory(std::string_view name) {
  std::string norm = std::string(kCategoryPrefix) + NormalizeTitle(name);
  WQE_ASSIGN_OR_RETURN(NodeId id,
                       AddEntry(graph::NodeKind::kCategory, name, norm));
  ++num_categories_;
  return id;
}

bool KnowledgeBase::BuilderIsRedirect(NodeId node) const {
  for (const graph::Edge& e : builder_->OutEdges(node)) {
    if (e.kind == graph::EdgeKind::kRedirect) return true;
  }
  return false;
}

Result<NodeId> KnowledgeBase::AddRedirect(std::string_view alias_title,
                                          NodeId main) {
  WQE_RETURN_NOT_OK(CheckMutable());
  WQE_RETURN_NOT_OK(builder_->CheckNode(main));
  if (!builder_->IsArticle(main)) {
    return Status::InvalidArgument("redirect target must be an article");
  }
  if (BuilderIsRedirect(main)) {
    return Status::InvalidArgument(
        "redirect target '", title(main),
        "' is itself a redirect; chains are not allowed");
  }
  std::string norm = NormalizeTitle(alias_title);
  WQE_ASSIGN_OR_RETURN(NodeId id,
                       AddEntry(graph::NodeKind::kArticle, alias_title, norm));
  WQE_RETURN_NOT_OK(builder_->AddEdge(id, main, graph::EdgeKind::kRedirect));
  ++num_redirects_;
  return id;
}

Status KnowledgeBase::AddLink(NodeId from, NodeId to) {
  WQE_RETURN_NOT_OK(CheckMutable());
  WQE_RETURN_NOT_OK(builder_->CheckNode(from));
  WQE_RETURN_NOT_OK(builder_->CheckNode(to));
  if (BuilderIsRedirect(from) || BuilderIsRedirect(to)) {
    return Status::InvalidArgument(
        "links must connect main articles, not redirects");
  }
  return builder_->AddEdge(from, to, graph::EdgeKind::kLink);
}

Status KnowledgeBase::AddBelongs(NodeId article, NodeId category) {
  WQE_RETURN_NOT_OK(CheckMutable());
  WQE_RETURN_NOT_OK(builder_->CheckNode(article));
  if (BuilderIsRedirect(article)) {
    return Status::InvalidArgument("redirects do not belong to categories");
  }
  return builder_->AddEdge(article, category, graph::EdgeKind::kBelongs);
}

Status KnowledgeBase::AddInside(NodeId category, NodeId parent) {
  WQE_RETURN_NOT_OK(CheckMutable());
  return builder_->AddEdge(category, parent, graph::EdgeKind::kInside);
}

std::optional<NodeId> KnowledgeBase::FindByTitle(
    std::string_view normalized_title) const {
  auto it = title_index_.find(std::string(normalized_title));
  if (it != title_index_.end()) return it->second;
  it = title_index_.find(std::string(kCategoryPrefix) +
                         std::string(normalized_title));
  if (it != title_index_.end()) return it->second;
  return std::nullopt;
}

std::optional<NodeId> KnowledgeBase::FindArticle(
    std::string_view normalized_title) const {
  auto it = title_index_.find(std::string(normalized_title));
  if (it == title_index_.end()) return std::nullopt;
  const bool is_article = builder_ ? builder_->IsArticle(it->second)
                                   : csr_.IsArticle(it->second);
  if (!is_article) return std::nullopt;
  return it->second;
}

bool KnowledgeBase::IsRedirect(NodeId node) const {
  const graph::CsrGraph& g = csr();
  return g.IsArticle(node) && g.RedirectTarget(node) != graph::kInvalidNode;
}

NodeId KnowledgeBase::ResolveRedirect(NodeId node) const {
  NodeId target = csr().RedirectTarget(node);
  return target == graph::kInvalidNode ? node : target;
}

std::vector<NodeId> KnowledgeBase::RedirectsOf(NodeId main) const {
  const graph::CsrGraph& g = csr();
  return RowOfKind(g.InSources(main), g.InKinds(main),
                   graph::EdgeKind::kRedirect);
}

std::vector<NodeId> KnowledgeBase::CategoriesOf(NodeId article) const {
  const graph::CsrGraph& g = csr();
  return RowOfKind(g.OutTargets(article), g.OutKinds(article),
                   graph::EdgeKind::kBelongs);
}

std::vector<NodeId> KnowledgeBase::LinkedFrom(NodeId article) const {
  const graph::CsrGraph& g = csr();
  return RowOfKind(g.OutTargets(article), g.OutKinds(article),
                   graph::EdgeKind::kLink);
}

std::vector<NodeId> KnowledgeBase::LinkingTo(NodeId article) const {
  const graph::CsrGraph& g = csr();
  return RowOfKind(g.InSources(article), g.InKinds(article),
                   graph::EdgeKind::kLink);
}

std::vector<NodeId> KnowledgeBase::Neighborhood(
    const std::vector<NodeId>& sources, uint32_t radius,
    size_t max_nodes) const {
  // Memory is proportional to the ball, never to the whole graph (this
  // runs on the serving cache-miss hot path).
  const graph::CsrGraph& g = csr();
  std::unordered_set<NodeId> seen;
  std::vector<NodeId> out;  // doubles as the BFS queue (visit order)
  std::vector<uint32_t> depth;
  for (NodeId s : sources) {
    if (s < g.num_nodes() && seen.insert(s).second) {
      out.push_back(s);
      depth.push_back(0);
    }
  }
  auto visit = [&](NodeId next, uint32_t d) {
    if (max_nodes != 0 && out.size() >= max_nodes) return;
    if (seen.insert(next).second) {
      out.push_back(next);
      depth.push_back(d);
    }
  };
  for (size_t head = 0; head < out.size(); ++head) {
    NodeId u = out[head];
    uint32_t d = depth[head];
    if (d >= radius) continue;
    if (max_nodes != 0 && out.size() >= max_nodes) break;
    std::span<const NodeId> targets = g.OutTargets(u);
    std::span<const graph::EdgeKind> out_kinds = g.OutKinds(u);
    for (size_t i = 0; i < targets.size(); ++i) {
      if (out_kinds[i] != graph::EdgeKind::kRedirect) visit(targets[i], d + 1);
    }
    std::span<const NodeId> in = g.InSources(u);
    std::span<const graph::EdgeKind> in_kinds = g.InKinds(u);
    for (size_t i = 0; i < in.size(); ++i) {
      if (in_kinds[i] != graph::EdgeKind::kRedirect) visit(in[i], d + 1);
    }
  }
  return out;
}

Status KnowledgeBase::Validate() const {
  const graph::CsrGraph& g = csr();
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (!g.IsArticle(n)) continue;
    if (g.RedirectTarget(n) != graph::kInvalidNode) {
      if (g.OutDegree(n) != 1) {
        return Status::Internal("redirect '", title(n),
                                "' has extra out-edges");
      }
      continue;
    }
    bool has_category = false;
    for (graph::EdgeKind kind : g.OutKinds(n)) {
      if (kind == graph::EdgeKind::kBelongs) {
        has_category = true;
        break;
      }
    }
    if (!has_category) {
      return Status::Internal("article '", title(n),
                              "' belongs to no category");
    }
  }
  return Status::OK();
}

}  // namespace wqe::wiki
