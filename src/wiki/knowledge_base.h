#pragma once

/// \file knowledge_base.h
/// \brief The Wikipedia knowledge base: typed graph + title index.
///
/// Builds a `graph::PropertyGraph`, serves a `graph::CsrGraph`, and adds
/// the Wikipedia-specific services the paper's pipeline needs: title lookup for entity linking (§2.1), redirect
/// resolution and redirect-derived synonyms, and category/link
/// neighborhoods for query-graph assembly (§2.3).
///
/// Titles are stored normalized (lowercase, collapsed whitespace — see
/// `NormalizeTitle`); the display title is kept separately for output.
///
/// Lifecycle: the KB is a *builder* until `Freeze()` is called.
/// `Freeze()` consumes the builder: it compiles the property graph into
/// an immutable `graph::CsrGraph` snapshot (see graph/csr.h) and releases
/// the property graph, so any mutation afterwards fails and the KB can be
/// shared read-only across every serving thread.  `FromSnapshot` brings a
/// KB up from an on-disk snapshot (see snapshot/reader.h) without ever
/// running the builder.  Either way the result is the same object — CSR,
/// per-node labels and display titles, title index — served through the
/// same code: every structural read (redirects, link/category rows,
/// neighborhoods, `Validate`) runs over the CSR and requires a frozen KB.
/// Titles, display titles and title lookups work in both states.
///
/// Names: labels and display titles are two `NameBlob`s, (offsets, bytes)
/// pairs in the snapshot's own section layout.  A built KB owns its
/// blobs and `AddEntry` appends to them; a loaded KB's blobs are spans
/// into the snapshot mapping, pinned by the KB the way its CSR arrays
/// are, so loading copies no name.  The title index is a flat table of
/// node ids that reads each key back through those blobs.  `title()` and
/// `display_title()` return views into the blobs: a view stays valid
/// while the KB that returned it lives (moving the KB keeps it valid;
/// `AddEntry` on a builder may move the bytes of earlier views).  The
/// KB is move-only.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/csr.h"
#include "graph/graph.h"

namespace wqe::wiki {

using graph::NodeId;
using graph::kInvalidNode;

/// \brief Per-node strings as one blob: node `u`'s string is
/// `bytes[offsets[u], offsets[u + 1])`.  The layout of the snapshot's
/// label and display-title sections (snapshot/format.h).
struct NameBlob {
  std::span<const uint64_t> offsets;  ///< num_nodes + 1, zero-based, monotone
  std::span<const char> bytes;        ///< ends at offsets.back()

  std::string_view operator[](NodeId u) const {
    return std::string_view(bytes.data() + offsets[u],
                            offsets[u + 1] - offsets[u]);
  }
};

/// \brief Wikipedia knowledge base: a builder until `Freeze()`, then an
/// immutable snapshot.
class KnowledgeBase {
 public:
  KnowledgeBase();

  /// \name Construction
  /// @{

  /// \brief Adds a (main) article. Fails with AlreadyExists when the
  /// normalized title is taken.
  Result<NodeId> AddArticle(std::string_view title);

  /// \brief Adds a category. Category names share the title namespace with
  /// a "category:" prefix, mirroring MediaWiki.
  Result<NodeId> AddCategory(std::string_view name);

  /// \brief Adds a redirect article `alias_title` pointing at `main`.
  /// Redirect articles carry only their redirect edge (they never close
  /// cycles, per the paper's §4 observation).
  Result<NodeId> AddRedirect(std::string_view alias_title, NodeId main);

  /// \brief Adds an article→article hyperlink.  Fails with OutOfRange
  /// when either id is not a node.
  Status AddLink(NodeId from, NodeId to);

  /// \brief Adds article→category membership.  Fails with OutOfRange
  /// when either id is not a node.
  Status AddBelongs(NodeId article, NodeId category);

  /// \brief Adds category→parent-category nesting.
  Status AddInside(NodeId category, NodeId parent);

  /// \brief Reconstitutes a frozen KB from snapshot sections (the
  /// `snapshot::Reader` path).  `labels`/`display_titles` are per-node,
  /// parallel to `csr`'s node ids, and are served in place: `storage` is
  /// the type-erased owner of their bytes (the reader's mmap region) and
  /// is pinned for the KB's lifetime.  As with `CsrGraph::FromSections`,
  /// the caller must have checked each blob's offsets (zero-based,
  /// monotone, ending at its byte count), as `snapshot::Reader` does.  The
  /// counts are the KB-level entity tallies from the snapshot's meta
  /// section.  Indexes the titles (O(V)) and cross-checks the counts
  /// against the graph's node-kind tallies — inconsistencies (duplicate
  /// titles, count drift) come back as a `Status`, since they indicate a
  /// corrupt or hand-rolled file.
  static Result<KnowledgeBase> FromSnapshot(
      graph::CsrGraph csr, NameBlob labels, NameBlob display_titles,
      std::shared_ptr<const void> storage, size_t num_articles,
      size_t num_redirects, size_t num_categories);
  /// @}

  /// \name Lookup
  ///
  /// The structural readers (`IsRedirect` through `LinkingTo`) require a
  /// frozen KB.  The list-valued ones (`RedirectsOf`, `CategoriesOf`,
  /// `LinkedFrom`, `LinkingTo`) return the snapshot's sorted rows:
  /// ascending node id, whatever order the edges were inserted in.
  /// @{

  /// \brief Finds any entry (article, redirect or category) by normalized
  /// title; `std::nullopt` when absent.
  std::optional<NodeId> FindByTitle(std::string_view normalized_title) const;

  /// \brief Finds an article (main or redirect) by normalized title.
  std::optional<NodeId> FindArticle(std::string_view normalized_title) const;

  /// \brief True when `node` is a redirect article.
  bool IsRedirect(NodeId node) const;

  /// \brief Follows the redirect edge if `node` is a redirect; identity
  /// otherwise.
  NodeId ResolveRedirect(NodeId node) const;

  /// \brief All redirect articles pointing at `main` (the paper's synonym
  /// source: "the synonyms of t are the titles of the redirects of a").
  std::vector<NodeId> RedirectsOf(NodeId main) const;

  /// \brief Normalized title of a node (a view into the label blob).
  std::string_view title(NodeId node) const { return labels_[node]; }

  /// \brief Display title (original casing/punctuation).
  std::string_view display_title(NodeId node) const {
    return display_titles_[node];
  }

  /// \brief Every node's normalized title, as one blob (what the
  /// snapshot writer stores).
  const NameBlob& labels() const { return labels_; }
  /// \brief Every node's display title, as one blob.
  const NameBlob& display_titles() const { return display_titles_; }

  /// \brief Categories an article belongs to.
  std::vector<NodeId> CategoriesOf(NodeId article) const;

  /// \brief Articles directly linked *from* `article`.
  std::vector<NodeId> LinkedFrom(NodeId article) const;

  /// \brief Articles directly linking *to* `article`.
  std::vector<NodeId> LinkingTo(NodeId article) const;
  /// @}

  /// \name Graph access
  /// @{
  size_t num_articles() const { return num_articles_; }
  size_t num_redirects() const { return num_redirects_; }
  size_t num_categories() const { return num_categories_; }

  /// \brief One-way bridge from builder to serving: compiles the frozen
  /// `CsrGraph` snapshot and releases the builder graph.  Idempotent (a
  /// no-op on a frozen or loaded KB); after the first call every `Add*`
  /// mutator fails with InvalidArgument.  `GenerateSyntheticWikipedia`
  /// and `ParseDump` return frozen KBs; call it yourself on a hand-built
  /// KB before any structural read.
  const graph::CsrGraph& Freeze();

  /// \brief The frozen snapshot; `Freeze()` must have been called.
  /// Safe to read from any number of threads concurrently.
  const graph::CsrGraph& csr() const;

  bool frozen() const { return !builder_.has_value(); }
  /// @}

  /// \brief Undirected BFS ball of radius `radius` around `sources`,
  /// traversing link/belongs/inside edges both ways (never redirects).
  /// `max_nodes` truncates the frontier expansion (0 = unlimited).
  /// Requires a frozen KB.
  std::vector<NodeId> Neighborhood(const std::vector<NodeId>& sources,
                                   uint32_t radius, size_t max_nodes) const;

  /// \brief Schema integrity check: every non-redirect article belongs to
  /// at least one category; every redirect has exactly one out-edge (its
  /// redirect) and no other edges.  Requires a frozen KB.
  Status Validate() const;

 private:
  /// A built KB's name bytes, which `AddEntry` appends to.
  struct OwnedNames {
    std::vector<uint64_t> label_offsets{0};
    std::vector<char> label_bytes;
    std::vector<uint64_t> display_offsets{0};
    std::vector<char> display_bytes;
  };

  /// Appends a node whose title key is `label`, "category:"-prefixed
  /// when `kind` is a category; fails when the key is empty or taken.
  Result<NodeId> AddEntry(graph::NodeKind kind, std::string_view title,
                          std::string_view label);

  /// Fails when the KB is frozen (mutators call this first).
  Status CheckMutable() const;

  /// The mutators' schema probe on the builder: true when the in-range
  /// `node` carries a redirect out-edge.
  bool BuilderIsRedirect(NodeId node) const;

  /// A node's kind, from the builder or the CSR.
  graph::NodeKind KindOf(NodeId node) const {
    return builder_ ? builder_->kind(node) : csr_.kind(node);
  }

  /// The slot of the title index that holds the key
  /// `(category ? "category:" : "") + name`, or the empty slot where it
  /// would go.
  size_t FindSlot(bool category, std::string_view name) const;

  /// The node whose key is `(category ? "category:" : "") + name`.
  std::optional<NodeId> Lookup(bool category, std::string_view name) const;

  /// Re-creates the title index over every node, with room for `keys`
  /// keys.  Fails on the first key that two nodes share.
  Status IndexTitles(size_t keys);

  /// The builder graph: engaged until `Freeze()` consumes it, never in a
  /// KB from `FromSnapshot`.
  std::optional<graph::PropertyGraph> builder_{std::in_place};
  graph::CsrGraph csr_;
  /// Per-node normalized labels and display titles.  Their bytes are
  /// `owned_names_` (a built KB) or pinned by `mapped_names_` (a loaded
  /// KB); either way every read goes through these blobs.
  NameBlob labels_;
  NameBlob display_titles_;
  std::unique_ptr<OwnedNames> owned_names_;
  std::shared_ptr<const void> mapped_names_;
  /// The title index: open-addressed, linearly probed slots of node ids
  /// (`kInvalidNode` is empty), a power of two at most 3/4 full.  A slot
  /// stores no key; it is read back through `labels_` and the node's kind.
  std::vector<NodeId> title_slots_;
  size_t num_articles_ = 0;
  size_t num_redirects_ = 0;
  size_t num_categories_ = 0;
};

}  // namespace wqe::wiki
