/// \file wiki_test.cc
/// \brief Tests for the knowledge base, synthetic generator and dump I/O.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/cycle_metrics.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "wiki/dump.h"
#include "wiki/knowledge_base.h"
#include "wiki/synthetic.h"
#include "wiki/wordlist.h"

#include "kb_expect.h"

namespace wqe::wiki {
namespace {

// ---------------------------------------------------------- KnowledgeBase

TEST(KnowledgeBaseTest, AddAndFindArticle) {
  KnowledgeBase kb;
  auto venice = kb.AddArticle("Venice");
  ASSERT_TRUE(venice.ok());
  EXPECT_EQ(kb.title(*venice), "venice");
  EXPECT_EQ(kb.display_title(*venice), "Venice");
  EXPECT_EQ(kb.FindArticle("venice"), *venice);
  EXPECT_EQ(kb.FindArticle("missing"), std::nullopt);
  EXPECT_TRUE(kb.AddArticle("VENICE").status().IsAlreadyExists());
  EXPECT_TRUE(kb.AddArticle("").status().IsInvalidArgument());
}

TEST(KnowledgeBaseTest, CategoriesShareNamespaceWithPrefix) {
  KnowledgeBase kb;
  auto article = kb.AddArticle("venice");
  auto category = kb.AddCategory("venice");  // same word, different entity
  ASSERT_TRUE(article.ok());
  ASSERT_TRUE(category.ok());
  EXPECT_NE(*article, *category);
  // FindArticle only returns articles.
  EXPECT_EQ(kb.FindArticle("venice"), *article);
  EXPECT_EQ(kb.FindByTitle("category:venice"), *category);
}

TEST(KnowledgeBaseTest, RedirectResolution) {
  KnowledgeBase kb;
  auto main = kb.AddArticle("regatta");
  auto alias = kb.AddRedirect("regata", *main);
  ASSERT_TRUE(alias.ok());
  kb.Freeze();
  EXPECT_TRUE(kb.IsRedirect(*alias));
  EXPECT_FALSE(kb.IsRedirect(*main));
  EXPECT_EQ(kb.ResolveRedirect(*alias), *main);
  EXPECT_EQ(kb.ResolveRedirect(*main), *main);
  auto redirects = kb.RedirectsOf(*main);
  ASSERT_EQ(redirects.size(), 1u);
  EXPECT_EQ(redirects[0], *alias);
}

TEST(KnowledgeBaseTest, RedirectChainsRejected) {
  KnowledgeBase kb;
  auto main = kb.AddArticle("a");
  auto r1 = kb.AddRedirect("b", *main);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(kb.AddRedirect("c", *r1).status().IsInvalidArgument());
}

TEST(KnowledgeBaseTest, RedirectsCannotLinkOrBelong) {
  KnowledgeBase kb;
  auto main = kb.AddArticle("a");
  auto other = kb.AddArticle("b");
  auto cat = kb.AddCategory("c");
  auto r = kb.AddRedirect("alias", *main);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(kb.AddLink(*r, *other).IsInvalidArgument());
  EXPECT_TRUE(kb.AddLink(*other, *r).IsInvalidArgument());
  EXPECT_TRUE(kb.AddBelongs(*r, *cat).IsInvalidArgument());
}

TEST(KnowledgeBaseTest, MutatorsRejectOutOfRangeIds) {
  KnowledgeBase kb;
  auto a = kb.AddArticle("a");
  auto cat = kb.AddCategory("c");
  ASSERT_TRUE(a.ok() && cat.ok());
  constexpr NodeId kFar = 1000000;
  EXPECT_EQ(kb.AddLink(*a, kFar).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(kb.AddLink(kFar, *a).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(kb.AddBelongs(kFar, *cat).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(kb.AddRedirect("alias", kFar).status().code(),
            StatusCode::kOutOfRange);
}

TEST(KnowledgeBaseTest, NeighborhoodBfs) {
  KnowledgeBase kb;
  auto a = kb.AddArticle("a");
  auto b = kb.AddArticle("b");
  auto c = kb.AddArticle("c");
  auto cat = kb.AddCategory("cat");
  ASSERT_TRUE(kb.AddLink(*a, *b).ok());
  ASSERT_TRUE(kb.AddLink(*b, *c).ok());
  ASSERT_TRUE(kb.AddBelongs(*a, *cat).ok());
  kb.Freeze();

  auto r0 = kb.Neighborhood({*a}, 0, 0);
  EXPECT_EQ(r0.size(), 1u);
  auto r1 = kb.Neighborhood({*a}, 1, 0);
  std::set<NodeId> s1(r1.begin(), r1.end());
  EXPECT_EQ(s1.size(), 3u);  // a, b, cat
  EXPECT_TRUE(s1.count(*cat));
  auto r2 = kb.Neighborhood({*a}, 2, 0);
  EXPECT_EQ(r2.size(), 4u);  // + c (via b, in-direction traversal too)
  // Cap respected.
  EXPECT_LE(kb.Neighborhood({*a}, 2, 2).size(), 2u);
}

TEST(KnowledgeBaseTest, ValidateCatchesUncategorizedArticle) {
  // Validate reads the snapshot, so each state is built and frozen on
  // its own.
  auto build = [](bool categorized) {
    KnowledgeBase kb;
    auto a = kb.AddArticle("a");
    auto cat = kb.AddCategory("c");
    EXPECT_TRUE(a.ok() && cat.ok());
    if (categorized) {
      EXPECT_TRUE(kb.AddBelongs(*a, *cat).ok());
    }
    kb.Freeze();
    return kb;
  };
  EXPECT_TRUE(build(false).Validate().IsInternal());
  EXPECT_TRUE(build(true).Validate().ok());
}

// -------------------------------------------------------------- Wordlist

TEST(WordlistTest, BaseWordsThenPseudoWords) {
  EXPECT_GT(BaseWordCount(), 300u);
  EXPECT_EQ(VocabularyWord(0), "venice");
  // Pseudo-words are deterministic and distinct over a wide range.
  std::set<std::string> seen;
  for (size_t i = BaseWordCount(); i < BaseWordCount() + 2000; ++i) {
    std::string w = VocabularyWord(i);
    EXPECT_FALSE(w.empty());
    EXPECT_TRUE(seen.insert(w).second) << "duplicate pseudo-word " << w;
    EXPECT_EQ(w, VocabularyWord(i));
  }
}

TEST(WordlistTest, SliceMatchesIndividualWords) {
  auto slice = VocabularySlice(5, 4);
  ASSERT_EQ(slice.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(slice[i], VocabularyWord(5 + i));
  }
}

// ------------------------------------------------------ SyntheticWikipedia

class SyntheticWikipediaTest : public ::testing::Test {
 protected:
  static const SyntheticWikipedia& Wiki() {
    static const SyntheticWikipedia* kWiki = [] {
      SyntheticWikipediaOptions options;
      options.num_domains = 24;
      auto result = GenerateSyntheticWikipedia(options);
      EXPECT_TRUE(result.ok()) << result.status();
      return new SyntheticWikipedia(std::move(result).ValueOrDie());
    }();
    return *kWiki;
  }
};

TEST_F(SyntheticWikipediaTest, ValidatesAndHasExpectedShape) {
  const auto& wiki = Wiki();
  EXPECT_TRUE(wiki.kb.frozen());
  EXPECT_TRUE(wiki.kb.Validate().ok());
  EXPECT_EQ(wiki.domain_articles.size(), 24u);
  EXPECT_GT(wiki.kb.num_articles(), 24u * 28u);
  EXPECT_GT(wiki.kb.num_categories(), 24u * 4u);
  EXPECT_GT(wiki.kb.num_redirects(), 0u);
  for (const auto& domain : wiki.domain_articles) {
    EXPECT_GE(domain.size(), 3u);
  }
}

TEST_F(SyntheticWikipediaTest, ReciprocalRateNearPaperValue) {
  // The paper measures 11.47% on real Wikipedia; the generator is
  // calibrated to land in the same regime.
  double rate = graph::ReciprocalLinkRate(Wiki().kb.csr());
  EXPECT_GT(rate, 0.06);
  EXPECT_LT(rate, 0.20);
}

TEST_F(SyntheticWikipediaTest, HubsHaveMutualPartners) {
  const auto& wiki = Wiki();
  size_t hubs_with_mutual = 0, hubs = 0;
  for (const auto& domain : wiki.domain_articles) {
    for (size_t h = 0; h < std::min<size_t>(8, domain.size()); ++h) {
      ++hubs;
      for (NodeId out : wiki.kb.LinkedFrom(domain[h])) {
        if (wiki.kb.csr().HasEdge(out, domain[h], graph::EdgeKind::kLink)) {
          ++hubs_with_mutual;
          break;
        }
      }
    }
  }
  EXPECT_GT(static_cast<double>(hubs_with_mutual),
            0.8 * static_cast<double>(hubs));
}

TEST_F(SyntheticWikipediaTest, CategoryGraphIsTriangleFreeForest) {
  // Every category has exactly one outgoing `inside` edge (tree-like, as
  // Wikipedia edition rules prescribe), so the pure category graph has no
  // cycles at all.
  const graph::CsrGraph& g = Wiki().kb.csr();
  for (graph::NodeId n = 0; n < g.num_nodes(); ++n) {
    if (!g.IsCategory(n)) continue;
    std::span<const graph::EdgeKind> kinds = g.OutKinds(n);
    EXPECT_LE(std::count(kinds.begin(), kinds.end(), graph::EdgeKind::kInside),
              1);
  }
}

TEST_F(SyntheticWikipediaTest, DeterministicForSeed) {
  SyntheticWikipediaOptions options;
  options.num_domains = 6;
  auto a = GenerateSyntheticWikipedia(options);
  auto b = GenerateSyntheticWikipedia(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameKb(a->kb, b->kb);
}

TEST_F(SyntheticWikipediaTest, SeedChangesOutput) {
  SyntheticWikipediaOptions options;
  options.num_domains = 6;
  auto a = GenerateSyntheticWikipedia(options);
  options.seed = 999;
  auto b = GenerateSyntheticWikipedia(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->kb.csr().num_edges(), b->kb.csr().num_edges());
}

TEST(SyntheticWikipediaOptionsTest, RejectsBadOptions) {
  SyntheticWikipediaOptions options;
  options.num_domains = 0;
  EXPECT_TRUE(GenerateSyntheticWikipedia(options).status()
                  .IsInvalidArgument());
}

// ------------------------------------------------------------------ Dump

TEST(WikitextTest, ExtractsLinksAndCategories) {
  auto links = ExtractWikiLinks(
      "The [[Grand Canal (Venice)|canal]] is in [[Venice]]. "
      "[[Category:Canals in Italy]] [[Category:Venice#History]]");
  ASSERT_EQ(links.size(), 4u);
  EXPECT_EQ(links[0].target, "grand canal venice");
  EXPECT_FALSE(links[0].is_category);
  EXPECT_EQ(links[1].target, "venice");
  EXPECT_TRUE(links[2].is_category);
  EXPECT_EQ(links[2].target, "canals in italy");
  EXPECT_EQ(links[3].target, "venice");  // fragment stripped
}

TEST(WikitextTest, HandlesMalformedBrackets) {
  EXPECT_TRUE(ExtractWikiLinks("no links here").empty());
  EXPECT_TRUE(ExtractWikiLinks("[[unclosed").empty());
  auto nested = ExtractWikiLinks("[[a [[b]] c]]");
  ASSERT_EQ(nested.size(), 1u);
  EXPECT_EQ(nested[0].target, "b");
  EXPECT_TRUE(ExtractWikiLinks("[[]]").empty());
}

const char* kTinyDump = R"(<mediawiki>
  <page><title>Venice</title><ns>0</ns><id>1</id>
    <revision><text>[[Gondola]] [[Category:Cities]]</text></revision>
  </page>
  <page><title>Gondola</title><ns>0</ns><id>2</id>
    <revision><text>[[Venice]] [[Missing Article]] [[Category:Boats]]</text></revision>
  </page>
  <page><title>Regata</title><ns>0</ns><id>3</id>
    <redirect title="Gondola" />
    <revision><text>#REDIRECT [[Gondola]]</text></revision>
  </page>
  <page><title>Category:Boats</title><ns>14</ns><id>4</id>
    <revision><text>[[Category:Cities]]</text></revision>
  </page>
  <page><title>Category:Cities</title><ns>14</ns><id>5</id>
    <revision><text></text></revision>
  </page>
  <page><title>Talk:Venice</title><ns>1</ns><id>6</id>
    <revision><text>ignored</text></revision>
  </page>
</mediawiki>)";

TEST(DumpParserTest, BuildsKnowledgeBase) {
  DumpImportStats stats;
  auto kb = ParseDump(kTinyDump, &stats);
  ASSERT_TRUE(kb.ok()) << kb.status();
  EXPECT_EQ(stats.pages, 6u);
  EXPECT_EQ(stats.articles, 2u);
  EXPECT_EQ(stats.categories, 2u);
  EXPECT_EQ(stats.redirects, 1u);
  EXPECT_EQ(stats.links, 2u);     // venice<->gondola
  EXPECT_EQ(stats.belongs, 2u);
  EXPECT_EQ(stats.inside, 1u);    // boats inside cities
  EXPECT_EQ(stats.dangling_links, 1u);  // [[Missing Article]]
  EXPECT_EQ(stats.skipped_pages, 1u);   // Talk namespace

  auto venice = kb->FindArticle("venice");
  auto gondola = kb->FindArticle("gondola");
  ASSERT_TRUE(venice.has_value());
  ASSERT_TRUE(gondola.has_value());
  EXPECT_TRUE(kb->frozen());
  EXPECT_TRUE(kb->csr().HasEdge(*venice, *gondola, graph::EdgeKind::kLink));
  EXPECT_TRUE(kb->csr().HasEdge(*gondola, *venice, graph::EdgeKind::kLink));
  auto regata = kb->FindArticle("regata");
  ASSERT_TRUE(regata.has_value());
  EXPECT_EQ(kb->ResolveRedirect(*regata), *gondola);
  // A category keeps its page title, minus only the namespace prefix.
  auto boats = kb->FindByTitle("category:boats");
  ASSERT_TRUE(boats.has_value());
  EXPECT_EQ(kb->display_title(*boats), "Boats");
}

TEST(DumpParserTest, RejectsMalformedNamespace) {
  // atoi would read "abc" as 0 (an article) and "14x" as 14 (a category).
  for (const char* ns : {"abc", "14x", "", " ", "99999999999", "1 4"}) {
    const std::string dump = std::string(
        "<mediawiki><page><title>Bad Page</title><ns>") + ns +
        "</ns><id>1</id><revision><text>x</text></revision></page>"
        "</mediawiki>";
    auto pages = ParseDumpPages(dump);
    ASSERT_FALSE(pages.ok()) << "<ns>" << ns << "</ns>";
    EXPECT_TRUE(pages.status().IsParseError()) << pages.status();
    EXPECT_NE(pages.status().message().find("Bad Page"), std::string::npos)
        << pages.status();
  }
  // Surrounding whitespace is fine, and negative namespaces are valid.
  auto pages = ParseDumpPages(
      "<mediawiki><page><title>T</title><ns> -1 </ns></page>"
      "<page><title>Category:C</title><ns>\n14\n</ns></page></mediawiki>");
  ASSERT_TRUE(pages.ok()) << pages.status();
  ASSERT_EQ(pages->size(), 2u);
  EXPECT_EQ((*pages)[0].ns, -1);
  EXPECT_EQ((*pages)[1].ns, 14);
}

TEST(DumpParserTest, RejectsNonMediawikiRoot) {
  EXPECT_TRUE(ParseDump("<notwiki></notwiki>").status().IsParseError());
  EXPECT_TRUE(ParseDump("").status().IsParseError());
}

TEST(DumpRoundTripTest, SyntheticKbSurvivesWriteParse) {
  SyntheticWikipediaOptions options;
  options.num_domains = 4;
  auto wiki = GenerateSyntheticWikipedia(options);
  ASSERT_TRUE(wiki.ok());
  std::string dump = WriteDump(wiki->kb);

  DumpImportStats stats;
  auto kb2 = ParseDump(dump, &stats);
  ASSERT_TRUE(kb2.ok()) << kb2.status();
  ExpectSameKb(wiki->kb, *kb2);
  EXPECT_EQ(stats.dangling_links, 0u);
}

// ---------------------------------------------------------- title index

/// The title index as the string-keyed map it replaced: every key (a
/// normalized title, "category:"-prefixed for a category) to its node,
/// plus which nodes are categories.
struct TitleOracle {
  std::map<std::string, NodeId> keys;
  std::set<NodeId> categories;

  void Add(NodeId node, bool category, std::string_view label) {
    std::string key = (category ? "category:" : "") + std::string(label);
    EXPECT_TRUE(keys.emplace(key, node).second) << "two nodes keyed " << key;
    if (category) categories.insert(node);
  }
  std::optional<NodeId> Find(const std::string& key) const {
    auto it = keys.find(key);
    if (it == keys.end()) return std::nullopt;
    return it->second;
  }
  std::optional<NodeId> FindByTitle(const std::string& title) const {
    std::optional<NodeId> hit = Find(title);
    return hit ? hit : Find("category:" + title);
  }
  std::optional<NodeId> FindArticle(const std::string& title) const {
    std::optional<NodeId> hit = Find(title);
    if (hit && categories.count(*hit) > 0) return std::nullopt;
    return hit;
  }
};

/// The oracle of a frozen KB, read off its node kinds and labels.
TitleOracle OracleOf(const KnowledgeBase& kb) {
  TitleOracle oracle;
  for (NodeId u = 0; u < kb.csr().num_nodes(); ++u) {
    oracle.Add(u, kb.csr().IsCategory(u), kb.title(u));
  }
  return oracle;
}

/// `FindByTitle` and `FindArticle` answer every key, every bare
/// category label and 10,000 seeded non-keys the way the map does; the
/// non-keys (prefixes, extensions and one-byte edits of keys, a bare
/// "category:", the empty string) are all missed.
void ExpectIndexMatchesOracle(const KnowledgeBase& kb,
                              const TitleOracle& oracle, uint64_t seed) {
  auto expect_same = [&](const std::string& probe) {
    EXPECT_EQ(kb.FindByTitle(probe), oracle.FindByTitle(probe)) << probe;
    EXPECT_EQ(kb.FindArticle(probe), oracle.FindArticle(probe)) << probe;
  };
  std::vector<std::string> keys;
  for (const auto& [key, node] : oracle.keys) {
    keys.push_back(key);
    ASSERT_EQ(kb.FindByTitle(key), node) << key;
    expect_same(key);
    if (oracle.categories.count(node) > 0) {
      expect_same(key.substr(std::string_view("category:").size()));
    }
  }
  ASSERT_FALSE(keys.empty());
  std::vector<std::string> probes = {"", "category:", "category",
                                     "category:category:"};
  Rng rng(seed);
  size_t misses = 0;
  for (size_t i = 0; misses < 10000; ++i) {
    std::string probe;
    if (i < probes.size()) {
      probe = probes[i];
    } else {
      probe = keys[rng.Uniform(static_cast<uint32_t>(keys.size()))];
      const auto at = static_cast<uint32_t>(probe.size());
      switch (rng.Uniform(4)) {
        case 0:  // a proper prefix
          probe.resize(rng.Uniform(at));
          break;
        case 1:  // an extension
          probe.push_back(static_cast<char>('a' + rng.Uniform(26)));
          break;
        case 2:  // a one-byte edit
          probe[rng.Uniform(at)] ^= static_cast<char>(1 + rng.Uniform(127));
          break;
        default:  // prefixed once more
          probe = "category:" + probe;
          break;
      }
    }
    expect_same(probe);
    if (oracle.FindByTitle(probe).has_value()) continue;
    EXPECT_EQ(kb.FindByTitle(probe), std::nullopt) << probe;
    EXPECT_EQ(kb.FindArticle(probe), std::nullopt) << probe;
    ++misses;
  }
}

TEST(TitleIndexTest, AgreesWithAMapOnBuiltParsedAndLoadedKbs) {
  // Hand-built: an article and a category with the same label, titles
  // that are prefixes of each other.  Checked while building and once
  // frozen.
  KnowledgeBase hand;
  TitleOracle hand_oracle;
  auto add = [&](Result<NodeId> added, bool category) {
    ASSERT_TRUE(added.ok()) << added.status();
    hand_oracle.Add(*added, category, hand.title(*added));
  };
  add(hand.AddArticle("Venice"), false);
  add(hand.AddCategory("Venice"), true);
  add(hand.AddArticle("Venice Lagoon"), false);
  add(hand.AddCategory("Cities"), true);
  add(hand.AddCategory("Cities of Italy"), true);
  add(hand.AddRedirect("La Serenissima", 0), false);
  for (int i = 0; i < 40; ++i) {  // enough keys to grow the table twice
    add(hand.AddArticle("Island " + std::to_string(i)), false);
  }
  EXPECT_TRUE(hand.AddCategory("CITIES").status().IsAlreadyExists());
  EXPECT_TRUE(hand.AddArticle("venice  lagoon").status().IsAlreadyExists());
  EXPECT_TRUE(hand.AddCategory("").status().IsInvalidArgument());
  EXPECT_TRUE(hand.AddArticle(":").status().IsInvalidArgument());
  EXPECT_EQ(hand.FindByTitle("category:cities"), 3u);
  EXPECT_EQ(hand.FindByTitle("cities"), 3u);  // as "category:cities"
  EXPECT_EQ(hand.FindArticle("cities"), std::nullopt);
  ExpectIndexMatchesOracle(hand, hand_oracle, /*seed=*/1);
  hand.Freeze();
  ExpectIndexMatchesOracle(hand, hand_oracle, /*seed=*/2);

  // A 12-domain synthetic KB, its dump round trip and its snapshot load.
  SyntheticWikipediaOptions options;
  options.num_domains = 12;
  auto wiki = GenerateSyntheticWikipedia(options);
  ASSERT_TRUE(wiki.ok()) << wiki.status();
  const TitleOracle oracle = OracleOf(wiki->kb);
  {
    SCOPED_TRACE("synthetic");
    ExpectIndexMatchesOracle(wiki->kb, oracle, /*seed=*/3);
  }
  {
    SCOPED_TRACE("dump round trip");
    auto parsed = ParseDump(WriteDump(wiki->kb));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    ExpectIndexMatchesOracle(*parsed, OracleOf(*parsed), /*seed=*/4);
    EXPECT_EQ(OracleOf(*parsed).keys, oracle.keys);
  }
  {
    SCOPED_TRACE("snapshot load");
    const std::string path = ::testing::TempDir() + "wqe_title_index.bin";
    ASSERT_TRUE(snapshot::WriteSnapshot(wiki->kb, path).ok());
    auto loaded = snapshot::LoadSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    std::remove(path.c_str());
    ExpectIndexMatchesOracle(*loaded, oracle, /*seed=*/5);
  }
}

TEST(TitleIndexTest, OneNamespaceForArticlesAndCategories) {
  // An article's normalized title never holds a ':' (NormalizeTitle makes
  // it a separator), so only a snapshot's name blobs can carry an article
  // keyed like a category.  Two nodes: an article and a category.
  KnowledgeBase shape;
  ASSERT_TRUE(shape.AddArticle("a").ok());
  ASSERT_TRUE(shape.AddCategory("b").ok());
  shape.Freeze();
  const std::vector<uint64_t> offsets = {0, 12, 15};
  const std::string displays = "Category:FooFoo";
  const NameBlob display_blob{offsets, displays};
  auto load = [&](const std::string& labels) {
    return KnowledgeBase::FromSnapshot(shape.csr(), NameBlob{offsets, labels},
                                       display_blob, nullptr, 1, 0, 1);
  };
  // "category:foo" on the article is category foo's key.
  const std::string colliding = "category:foofoo";
  auto rejected = load(colliding);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument()) << rejected.status();
  EXPECT_NE(rejected.status().message().find(
                "title 'category:foo' appears on nodes 0 and 1"),
            std::string::npos)
      << rejected.status();

  const std::string distinct = "category:fobfoo";
  auto kb = load(distinct);
  ASSERT_TRUE(kb.ok()) << kb.status();
  EXPECT_EQ(kb->FindArticle("category:fob"), 0u);
  EXPECT_EQ(kb->FindByTitle("fob"), 0u);  // as "category:fob"
  EXPECT_EQ(kb->FindByTitle("category:foo"), 1u);
  EXPECT_EQ(kb->FindArticle("category:foo"), std::nullopt);
  TitleOracle oracle;
  oracle.Add(0, false, "category:fob");
  oracle.Add(1, true, "foo");
  ExpectIndexMatchesOracle(*kb, oracle, /*seed=*/6);
}

}  // namespace
}  // namespace wqe::wiki
