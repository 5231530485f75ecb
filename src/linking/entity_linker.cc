#include "linking/entity_linker.h"

#include <algorithm>
#include <unordered_set>

#include "common/string_util.h"
#include "text/stopwords.h"

namespace wqe::linking {

namespace {

/// Longest title window, in tokens.
constexpr size_t kMaxWindow = 5;

/// Joins token texts [i, i+len) with single spaces (tokens are already
/// lowercase, which matches normalized titles).
std::string WindowText(const std::vector<text::Token>& tokens, size_t i,
                       size_t len) {
  std::string out;
  for (size_t k = 0; k < len; ++k) {
    if (k > 0) out += " ";
    out += tokens[i + k].text;
  }
  return out;
}

}  // namespace

NodeId EntityLinker::MatchWindow(const std::vector<text::Token>& tokens,
                                 size_t i, size_t len) const {
  std::string key = WindowText(tokens, i, len);
  auto hit = kb_->FindArticle(key);
  return hit.has_value() ? *hit : graph::kInvalidNode;
}

std::vector<std::string_view> EntityLinker::SynonymsOf(
    std::string_view term) const {
  std::vector<std::string_view> out;
  auto node = kb_->FindArticle(term);
  if (!node.has_value()) return out;
  if (kb_->IsRedirect(*node)) {
    // The main title is a synonym of its redirect alias.
    out.push_back(kb_->title(kb_->ResolveRedirect(*node)));
  } else {
    // The redirect aliases are synonyms of the main title.
    for (NodeId r : kb_->RedirectsOf(*node)) {
      out.push_back(kb_->title(r));
    }
  }
  return out;
}

NodeId EntityLinker::MatchWindowViaSynonyms(
    const std::vector<text::Token>& tokens, size_t i, size_t len,
    std::string* surface) const {
  // Replace one term at a time by each of its synonyms and retry the
  // lookup ("we derive a synonym phrase by replacing at least one term of
  // the input text by a synonymous term").
  for (size_t k = 0; k < len; ++k) {
    for (std::string_view syn : SynonymsOf(tokens[i + k].text)) {
      std::string key;
      for (size_t m = 0; m < len; ++m) {
        if (m > 0) key += " ";
        if (m == k) {
          key += syn;
        } else {
          key += tokens[i + m].text;
        }
      }
      auto hit = kb_->FindArticle(key);
      if (hit.has_value()) {
        *surface = std::move(key);
        return *hit;
      }
    }
  }
  return graph::kInvalidNode;
}

std::vector<EntityMention> EntityLinker::Link(std::string_view input) const {
  std::vector<text::Token> tokens = text::Tokenizer().Tokenize(input);
  const text::StopwordSet& stopwords = text::StopwordSet::Default();

  std::vector<EntityMention> mentions;
  size_t i = 0;
  while (i < tokens.size()) {
    size_t longest = std::min(kMaxWindow, tokens.size() - i);
    bool matched = false;
    for (size_t len = longest; len >= 1 && !matched; --len) {
      // Skip stopword singletons ("the" is not an entity).
      if (len == 1 && stopwords.Contains(tokens[i].text)) break;
      NodeId node = MatchWindow(tokens, i, len);
      bool via_synonym = false;
      std::string surface = WindowText(tokens, i, len);
      if (node == graph::kInvalidNode && len > 1) {
        node = MatchWindowViaSynonyms(tokens, i, len, &surface);
        via_synonym = node != graph::kInvalidNode;
      }
      if (node != graph::kInvalidNode) {
        EntityMention mention;
        mention.via_redirect = kb_->IsRedirect(node);
        mention.article = kb_->ResolveRedirect(node);
        mention.begin = tokens[i].begin;
        mention.end = tokens[i + len - 1].end;
        mention.surface = std::move(surface);
        mention.via_synonym = via_synonym;
        mentions.push_back(std::move(mention));
        i += len;
        matched = true;
      }
    }
    if (!matched) ++i;
  }
  return mentions;
}

std::vector<NodeId> EntityLinker::LinkToArticles(std::string_view text) const {
  std::vector<EntityMention> mentions = Link(text);
  std::vector<NodeId> out;
  std::unordered_set<NodeId> seen;
  for (const EntityMention& m : mentions) {
    if (seen.insert(m.article).second) out.push_back(m.article);
  }
  return out;
}

}  // namespace wqe::linking
