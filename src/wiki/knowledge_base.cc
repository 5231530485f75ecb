#include "wiki/knowledge_base.h"

#include <unordered_set>

#include "common/hash.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace wqe::wiki {

namespace {

constexpr std::string_view kCategoryPrefix = "category:";

/// The hash of the key `(category ? "category:" : "") + name`.  A
/// category's continues FNV-1a from the prefix over its label, so it
/// equals the joined key's hash without building the joined key.
uint64_t KeyHash(bool category, std::string_view name) {
  // FNV-1a's state after the prefix, hashed once per process.
  static const uint64_t kCategorySeed =
      HashBytes(kCategoryPrefix.data(), kCategoryPrefix.size());
  return MixHash(HashBytes(name.data(), name.size(),
                           category ? kCategorySeed : kHashSeed));
}

/// True when the keys `(a_category ? "category:" : "") + a` and
/// `(b_category ? "category:" : "") + b` are equal: an article titled
/// "category:foo" has category foo's key.
bool KeysEqual(bool a_category, std::string_view a, bool b_category,
               std::string_view b) {
  if (a_category == b_category) return a == b;
  if (a_category) std::swap(a, b);  // now only `b` carries the prefix
  return a.size() == kCategoryPrefix.size() + b.size() &&
         a.starts_with(kCategoryPrefix) &&
         a.substr(kCategoryPrefix.size()) == b;
}

/// The joined key, for error messages.
std::string Key(bool category, std::string_view name) {
  return (category ? std::string(kCategoryPrefix) : std::string())
      .append(name);
}

/// Title-index slots for `n` keys: a power of two at most 3/4 full.
size_t SlotsFor(size_t n) {
  size_t slots = 16;
  while (slots * 3 < n * 4) slots *= 2;
  return slots;
}

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

KnowledgeBase::KnowledgeBase()
    : owned_names_(std::make_unique<OwnedNames>()),
      title_slots_(SlotsFor(0), kInvalidNode) {
  labels_ = {owned_names_->label_offsets, owned_names_->label_bytes};
  display_titles_ = {owned_names_->display_offsets,
                     owned_names_->display_bytes};
}

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

size_t KnowledgeBase::FindSlot(bool category, std::string_view name) const {
  const size_t mask = title_slots_.size() - 1;
  for (size_t i = KeyHash(category, name) & mask;; i = (i + 1) & mask) {
    const NodeId u = title_slots_[i];
    if (u == kInvalidNode ||
        KeysEqual(category, name, KindOf(u) == graph::NodeKind::kCategory,
                  labels_[u])) {
      return i;
    }
  }
}

std::optional<NodeId> KnowledgeBase::Lookup(bool category,
                                            std::string_view name) const {
  const NodeId u = title_slots_[FindSlot(category, name)];
  if (u == kInvalidNode) return std::nullopt;
  return u;
}

Status KnowledgeBase::IndexTitles(size_t keys) {
  const size_t n = labels_.offsets.size() - 1;
  title_slots_.assign(SlotsFor(keys), kInvalidNode);
  for (NodeId u = 0; u < n; ++u) {
    const bool category = KindOf(u) == graph::NodeKind::kCategory;
    NodeId& slot = title_slots_[FindSlot(category, labels_[u])];
    if (slot != kInvalidNode) {
      return Status::InvalidArgument("snapshot title '",
                                     Key(category, labels_[u]),
                                     "' appears on nodes ", slot, " and ", u);
    }
    slot = u;
  }
  return Status::OK();
}

Result<KnowledgeBase> KnowledgeBase::FromSnapshot(
    graph::CsrGraph csr, NameBlob labels, NameBlob display_titles,
    std::shared_ptr<const void> storage, size_t num_articles,
    size_t num_redirects, size_t num_categories) {
  const size_t n = csr.num_nodes();
  if (labels.offsets.size() != n + 1 ||
      display_titles.offsets.size() != n + 1) {
    return Status::InvalidArgument(
        "snapshot carries ", labels.offsets.size(), " label offsets and ",
        display_titles.offsets.size(), " display title offsets for ", n,
        " nodes");
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
  kb.owned_names_.reset();
  kb.mapped_names_ = std::move(storage);
  kb.labels_ = labels;
  kb.display_titles_ = display_titles;
  // The same keys the builder indexed: the label for articles,
  // "category:"-prefixed for categories.
  WQE_RETURN_NOT_OK(kb.IndexTitles(n));
  return kb;
}

Result<NodeId> KnowledgeBase::AddEntry(graph::NodeKind kind,
                                       std::string_view title,
                                       std::string_view label) {
  WQE_RETURN_NOT_OK(CheckMutable());
  if (label.empty()) return Status::InvalidArgument("empty title");
  const bool category = kind == graph::NodeKind::kCategory;
  const size_t n = labels_.offsets.size() - 1;
  if (title_slots_.size() < SlotsFor(n + 1)) {
    WQE_RETURN_NOT_OK(IndexTitles(n + 1));  // grow: the keys are unique
  }
  const size_t slot = FindSlot(category, label);
  if (title_slots_[slot] != kInvalidNode) {
    return Status::AlreadyExists("title '", Key(category, label),
                                 "' already exists as node ",
                                 title_slots_[slot]);
  }
  NodeId id = builder_->AddNode(kind);
  OwnedNames& names = *owned_names_;
  names.label_bytes.insert(names.label_bytes.end(), label.begin(),
                           label.end());
  names.label_offsets.push_back(names.label_bytes.size());
  names.display_bytes.insert(names.display_bytes.end(), title.begin(),
                             title.end());
  names.display_offsets.push_back(names.display_bytes.size());
  labels_ = {names.label_offsets, names.label_bytes};
  display_titles_ = {names.display_offsets, names.display_bytes};
  title_slots_[slot] = id;
  return id;
}

Result<NodeId> KnowledgeBase::AddArticle(std::string_view title) {
  WQE_ASSIGN_OR_RETURN(
      NodeId id,
      AddEntry(graph::NodeKind::kArticle, title, NormalizeTitle(title)));
  ++num_articles_;
  return id;
}

Result<NodeId> KnowledgeBase::AddCategory(std::string_view name) {
  WQE_ASSIGN_OR_RETURN(
      NodeId id,
      AddEntry(graph::NodeKind::kCategory, name, NormalizeTitle(name)));
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
  WQE_ASSIGN_OR_RETURN(NodeId id,
                       AddEntry(graph::NodeKind::kArticle, alias_title,
                                NormalizeTitle(alias_title)));
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
  if (std::optional<NodeId> hit = Lookup(false, normalized_title)) return hit;
  return Lookup(true, normalized_title);
}

std::optional<NodeId> KnowledgeBase::FindArticle(
    std::string_view normalized_title) const {
  std::optional<NodeId> hit = Lookup(false, normalized_title);
  if (!hit || KindOf(*hit) != graph::NodeKind::kArticle) return std::nullopt;
  return hit;
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
