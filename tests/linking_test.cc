/// \file linking_test.cc
/// \brief Tests for the entity linker (§2.1): largest-substring matching,
/// redirect resolution, synonym phrases.

#include <gtest/gtest.h>

#include "linking/entity_linker.h"
#include "wiki/knowledge_base.h"

namespace wqe::linking {
namespace {

using wiki::KnowledgeBase;

class EntityLinkerTest : public ::testing::Test {
 protected:
  EntityLinkerTest() {
    venice_ = *kb_.AddArticle("Venice");
    grand_canal_ = *kb_.AddArticle("Grand Canal");
    grand_canal_venice_ = *kb_.AddArticle("Grand Canal of Venice");
    gondola_ = *kb_.AddArticle("Gondola");
    regatta_ = *kb_.AddArticle("Regatta");
    // Redirects: "regata" -> regatta; "the floating city" -> venice.
    regata_ = *kb_.AddRedirect("Regata", regatta_);
    floating_ = *kb_.AddRedirect("Floating City", venice_);
    auto cat = *kb_.AddCategory("venetian things");
    for (auto a : {venice_, grand_canal_, grand_canal_venice_, gondola_,
                   regatta_}) {
      EXPECT_TRUE(kb_.AddBelongs(a, cat).ok());
    }
  }
  /// Freezes the KB (tests may add articles first) and builds a linker.
  EntityLinker Linker() {
    kb_.Freeze();
    return EntityLinker(&kb_);
  }

  KnowledgeBase kb_;
  graph::NodeId venice_, grand_canal_, grand_canal_venice_, gondola_,
      regatta_, regata_, floating_;
};

TEST_F(EntityLinkerTest, LinksSimpleMentions) {
  EntityLinker linker = Linker();
  auto articles = linker.LinkToArticles("a gondola in Venice");
  ASSERT_EQ(articles.size(), 2u);
  EXPECT_EQ(articles[0], gondola_);
  EXPECT_EQ(articles[1], venice_);
}

TEST_F(EntityLinkerTest, PrefersLargestSubstring) {
  EntityLinker linker = Linker();
  // "grand canal of venice" must match the 4-token title, not
  // "grand canal" + "venice".
  auto mentions = linker.Link("the Grand Canal of Venice at dusk");
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].article, grand_canal_venice_);
  EXPECT_EQ(mentions[0].surface, "grand canal of venice");
}

TEST_F(EntityLinkerTest, GreedyLeftToRightNonOverlapping) {
  EntityLinker linker = Linker();
  auto mentions = linker.Link("venice gondola regatta");
  ASSERT_EQ(mentions.size(), 3u);
  EXPECT_EQ(mentions[0].article, venice_);
  EXPECT_EQ(mentions[1].article, gondola_);
  EXPECT_EQ(mentions[2].article, regatta_);
  // Byte spans are ordered and non-overlapping.
  EXPECT_LE(mentions[0].end, mentions[1].begin);
  EXPECT_LE(mentions[1].end, mentions[2].begin);
}

TEST_F(EntityLinkerTest, RedirectTitlesResolveToMain) {
  EntityLinker linker = Linker();
  auto mentions = linker.Link("the regata of the floating city");
  ASSERT_EQ(mentions.size(), 2u);
  EXPECT_EQ(mentions[0].article, regatta_);
  EXPECT_TRUE(mentions[0].via_redirect);
  EXPECT_EQ(mentions[1].article, venice_);
  EXPECT_TRUE(mentions[1].via_redirect);
}

TEST_F(EntityLinkerTest, SynonymPhraseViaRedirect) {
  // "grand canal of floating city" matches no title directly; replacing
  // the redirect-title span fails too (multi-word), but replacing the
  // term "venice" by synonym works the other way: "grand canal of
  // venice" ← via synonym of... exercise the single-term substitution:
  // make a title "regatta day" and text "regata day".
  auto regatta_day = kb_.AddArticle("Regatta Day");
  ASSERT_TRUE(regatta_day.ok());
  auto cat = kb_.FindByTitle("category:venetian things");
  ASSERT_TRUE(cat.has_value());
  ASSERT_TRUE(kb_.AddBelongs(*regatta_day, *cat).ok());

  EntityLinker linker = Linker();
  auto mentions = linker.Link("the regata day festivities");
  ASSERT_GE(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].article, *regatta_day);
  EXPECT_TRUE(mentions[0].via_synonym);
  EXPECT_EQ(mentions[0].surface, "regatta day");
}

TEST_F(EntityLinkerTest, StopwordSingletonsSkipped) {
  auto the = kb_.AddArticle("The");  // pathological article
  ASSERT_TRUE(the.ok());
  EntityLinker linker = Linker();
  EXPECT_TRUE(linker.LinkToArticles("the the the").empty());
}

TEST_F(EntityLinkerTest, DedupesArticlesKeepsMentions) {
  EntityLinker linker = Linker();
  EXPECT_EQ(linker.Link("venice and venice again").size(), 2u);
  EXPECT_EQ(linker.LinkToArticles("venice and venice again").size(), 1u);
}

TEST_F(EntityLinkerTest, NoMatchesYieldEmpty) {
  EntityLinker linker = Linker();
  EXPECT_TRUE(linker.LinkToArticles("completely unrelated words").empty());
  EXPECT_TRUE(linker.LinkToArticles("").empty());
}

TEST_F(EntityLinkerTest, CaseAndPunctuationInsensitive) {
  EntityLinker linker = Linker();
  auto articles = linker.LinkToArticles("GONDOLA! (venice)");
  ASSERT_EQ(articles.size(), 2u);
}

TEST_F(EntityLinkerTest, MaxWindowRespected) {
  // Windows span at most five tokens: a five-token title links, and a
  // six-token title (none of whose shorter windows is a title) does not.
  auto five = kb_.AddArticle("Museo Correr Napoleonic Wing Gallery");
  ASSERT_TRUE(five.ok());
  ASSERT_TRUE(kb_.AddArticle("Palazzo Ducale Prison Bridge Cell Block").ok());
  EntityLinker linker = Linker();
  auto mentions = linker.Link("museo correr napoleonic wing gallery");
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].article, *five);
  EXPECT_TRUE(
      linker.LinkToArticles("palazzo ducale prison bridge cell block").empty());
}

}  // namespace
}  // namespace wqe::linking
