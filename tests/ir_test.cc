/// \file ir_test.cc
/// \brief Tests for the retrieval engine: store, frozen index, query
/// language, scoring (differentially against the map-based oracle,
/// `InvertedIndex` + `QueryEvaluator`) and evaluation metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <thread>

#include "common/rng.h"
#include "ir/document_store.h"
#include "ir/eval.h"
#include "ir/frozen_index.h"
#include "ir/inverted_index.h"
#include "ir/query.h"
#include "ir/ranker.h"
#include "ir/scorer.h"
#include "ir/search_engine.h"

namespace wqe::ir {
namespace {

// ----------------------------------------------------------- DocumentStore

TEST(DocumentStoreTest, AddAndLookup) {
  DocumentStore store;
  auto id = store.Add("doc1.xml", "some text");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(store.Get(*id).name, "doc1.xml");
  EXPECT_EQ(store.FindByName("doc1.xml"), *id);
  EXPECT_EQ(store.FindByName("nope"), std::nullopt);
  EXPECT_TRUE(store.Add("doc1.xml", "dup").status().IsAlreadyExists());
  EXPECT_TRUE(store.Add("", "x").status().IsInvalidArgument());
}

// ------------------------------------------------------------ FrozenIndex

class IndexTest : public ::testing::Test {
 protected:
  IndexTest() {
    // doc0: "the gondola in venice"  → gondola venic
    // doc1: "venice venice gondola"  → venic venic gondola
    // doc2: "grand canal of venice"  → grand canal venic
    EXPECT_TRUE(store_.Add("d0", "the gondola in venice").ok());
    EXPECT_TRUE(store_.Add("d1", "venice venice gondola").ok());
    EXPECT_TRUE(store_.Add("d2", "grand canal of venice").ok());
    auto built = FrozenIndex::Build(store_, analyzer_);
    EXPECT_TRUE(built.ok()) << built.status();
    index_ = std::move(*built);
  }

  /// Documents holding the exact phrase of analyzed `terms`, with counts;
  /// a phrase with an unknown term matches nothing.
  std::vector<std::pair<DocId, uint32_t>> Phrase(
      const std::vector<std::string>& terms) const {
    std::vector<TermId> ids;
    for (const std::string& t : terms) ids.push_back(index_.Lookup(t));
    std::vector<DocId> docs;
    std::vector<uint32_t> tfs;
    if (std::find(ids.begin(), ids.end(), kOovTerm) == ids.end()) {
      index_.PhraseMatches(ids, &docs, &tfs);
    }
    std::vector<std::pair<DocId, uint32_t>> out;
    for (size_t i = 0; i < docs.size(); ++i) out.emplace_back(docs[i], tfs[i]);
    return out;
  }

  uint32_t PhraseTf(const std::vector<std::string>& terms, DocId doc) const {
    for (const auto& [d, tf] : Phrase(terms)) {
      if (d == doc) return tf;
    }
    return 0;
  }

  text::Analyzer analyzer_;
  DocumentStore store_;
  FrozenIndex index_;
};

TEST_F(IndexTest, PostingsAndStats) {
  const TermId venice = index_.Lookup("venic");  // stemmed
  ASSERT_NE(venice, kOovTerm);
  EXPECT_EQ(index_.term(venice), "venic");
  EXPECT_EQ(index_.df(venice), 3u);
  EXPECT_EQ(index_.collection_tf(venice), 4u);
  EXPECT_EQ(index_.num_docs(), 3u);
  EXPECT_EQ(index_.num_terms(), 4u);  // canal gondola grand venic
  EXPECT_EQ(index_.Lookup("venice"), kOovTerm);  // unstemmed form absent
  EXPECT_EQ(index_.Lookup("zzz"), kOovTerm);
  EXPECT_EQ(index_.doc_length(1), 3u);
  EXPECT_EQ(index_.total_tokens(), 2u + 3u + 3u);
  EXPECT_NE(index_.id(), 0u);

  const std::span<const DocId> docs = index_.docs(venice);
  const std::span<const uint32_t> tfs = index_.tfs(venice);
  EXPECT_EQ(std::vector<DocId>(docs.begin(), docs.end()),
            (std::vector<DocId>{0, 1, 2}));
  EXPECT_EQ(std::vector<uint32_t>(tfs.begin(), tfs.end()),
            (std::vector<uint32_t>{1, 2, 1}));
  const std::span<const uint32_t> in_doc1 = index_.positions(venice, 1);
  EXPECT_EQ(std::vector<uint32_t>(in_doc1.begin(), in_doc1.end()),
            (std::vector<uint32_t>{0, 1}));
  const std::span<const uint32_t> in_doc2 = index_.positions(venice, 2);
  EXPECT_EQ(std::vector<uint32_t>(in_doc2.begin(), in_doc2.end()),
            (std::vector<uint32_t>{2}));  // "of" dropped, positions compacted
}

TEST_F(IndexTest, DictionaryIsSortedAndRankIsTheId) {
  for (TermId t = 0; t < index_.num_terms(); ++t) {
    EXPECT_EQ(index_.Lookup(index_.term(t)), t);
    if (t > 0) {
      EXPECT_LT(index_.term(t - 1), index_.term(t));
    }
  }
  EXPECT_EQ(index_.term(0), "canal");
  EXPECT_EQ(index_.Lookup(""), kOovTerm);
  EXPECT_EQ(index_.Lookup("zzzz"), kOovTerm);  // past the last term
}

TEST_F(IndexTest, EveryBuildHasItsOwnId) {
  auto again = FrozenIndex::Build(store_, analyzer_);
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again->id(), 0u);
  EXPECT_NE(again->id(), index_.id());
  EXPECT_EQ(FrozenIndex().id(), 0u);
}

TEST(OracleIndexTest, RequiresIdOrder) {
  text::Analyzer analyzer;
  InvertedIndex index(&analyzer);
  EXPECT_TRUE(index.Add(0, "venice").ok());
  EXPECT_TRUE(index.Add(7, "skip ahead").IsInvalidArgument());
}

TEST_F(IndexTest, PhraseTfExactAdjacency) {
  // "grand canal" appears once in doc2 only.
  EXPECT_EQ(PhraseTf({"grand", "canal"}, 2), 1u);
  EXPECT_EQ(PhraseTf({"grand", "canal"}, 0), 0u);
  EXPECT_EQ(PhraseTf({"canal", "grand"}, 2), 0u);  // order matters
  EXPECT_EQ(PhraseTf({"venic", "venic"}, 1), 1u);
  EXPECT_EQ(PhraseTf({"venic", "venic", "gondola"}, 1), 1u);
  EXPECT_EQ(PhraseTf({"canal", "venic"}, 2), 1u);  // across "of"
  EXPECT_EQ(PhraseTf({}, 0), 0u);
}

TEST_F(IndexTest, PhrasePostingsAcrossDocs) {
  EXPECT_EQ(Phrase({"venic"}).size(), 3u);
  auto grand_canal = Phrase({"grand", "canal"});
  ASSERT_EQ(grand_canal.size(), 1u);
  EXPECT_EQ(grand_canal[0].first, 2u);
  EXPECT_EQ(Phrase({"gondola", "venic"}),
            (std::vector<std::pair<DocId, uint32_t>>{{0, 1}}));
  EXPECT_TRUE(Phrase({"zzz", "venic"}).empty());
}

TEST(IndexStopwordPositionTest, PhraseMatchesAcrossStopwords) {
  // Stopping compacts positions on both the document and the query side,
  // so the title "bridge of sighs" matches documents containing it with or
  // without the inner stopword — but not with an interposed content word.
  SearchEngine engine;
  ASSERT_TRUE(engine.AddDocument("d0", "the bridge of sighs in venice").ok());
  ASSERT_TRUE(engine.AddDocument("d1", "bridge sighs venice").ok());
  ASSERT_TRUE(
      engine.AddDocument("d2", "bridge near sighs venice").ok());
  ASSERT_TRUE(engine.Finalize().ok());
  auto results = engine.SearchTitles({"bridge of sighs"}, 3);
  ASSERT_TRUE(results.ok()) << results.status();
  std::set<DocId> docs;
  for (const ScoredDoc& sd : *results) docs.insert(sd.doc);
  EXPECT_TRUE(docs.count(0));
  EXPECT_TRUE(docs.count(1));
  // d2 has "near" between the words: phrase tf 0, but its terms still make
  // it a candidate — it must rank below the phrase matches.
  EXPECT_NE(results->front().doc, 2u);
  EXPECT_NE((*results)[1].doc, 2u);
}

// ------------------------------------------------------------ Query parser

TEST(QueryParserTest, ParsesTermPhraseCombine) {
  auto q = ParseQuery("#combine(venice #1(grand canal) gondola)");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->kind, QueryNode::Kind::kCombine);
  ASSERT_EQ(q->children.size(), 3u);
  EXPECT_EQ(q->children[0].kind, QueryNode::Kind::kTerm);
  EXPECT_EQ(q->children[0].term, "venice");
  EXPECT_EQ(q->children[1].kind, QueryNode::Kind::kPhrase);
  ASSERT_EQ(q->children[1].phrase.size(), 2u);
  EXPECT_EQ(q->children[1].phrase[1], "canal");
}

TEST(QueryParserTest, BareTermsImplicitlyCombined) {
  auto q = ParseQuery("graffiti street art");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->kind, QueryNode::Kind::kCombine);
  EXPECT_EQ(q->children.size(), 3u);
}

TEST(QueryParserTest, SingleTermStaysTerm) {
  auto q = ParseQuery("venice");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->kind, QueryNode::Kind::kTerm);
}

TEST(QueryParserTest, SingleWordPhraseCollapses) {
  auto q = ParseQuery("#1(venice)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->kind, QueryNode::Kind::kTerm);
}

TEST(QueryParserTest, NestedCombine) {
  auto q = ParseQuery("#combine(#combine(a b) c)");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->children.size(), 2u);
  EXPECT_EQ(q->children[0].kind, QueryNode::Kind::kCombine);
}

TEST(QueryParserTest, Lowercases) {
  auto q = ParseQuery("#1(Grand CANAL)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->phrase[0], "grand");
  EXPECT_EQ(q->phrase[1], "canal");
}

TEST(QueryParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("#combine()").ok());
  EXPECT_FALSE(ParseQuery("#1()").ok());
  EXPECT_FALSE(ParseQuery("#unknown(a)").ok());
  EXPECT_FALSE(ParseQuery("#combine(a").ok());
}

TEST(QueryNodeTest, ToStringRoundTrip) {
  auto q = ParseQuery("#combine(venice #1(grand canal))");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->ToString(), "#combine(venice #1(grand canal))");
  auto q2 = ParseQuery(q->ToString());
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->ToString(), q->ToString());
}

TEST(QueryNodeTest, CombinePhrasesBuildsTitleQuery) {
  QueryNode q = QueryNode::CombinePhrases({"Venice", "Grand Canal", ""});
  ASSERT_EQ(q.kind, QueryNode::Kind::kCombine);
  ASSERT_EQ(q.children.size(), 2u);
  EXPECT_EQ(q.children[0].kind, QueryNode::Kind::kTerm);
  EXPECT_EQ(q.children[1].kind, QueryNode::Kind::kPhrase);
}

// ----------------------------------------------------------------- Scoring

class ScoringTest : public ::testing::Test {
 protected:
  ScoringTest() {
    // Exact-phrase discrimination setup: doc0 has the phrase, doc1 has the
    // words scattered, doc2 is unrelated.
    EXPECT_TRUE(engine_.AddDocument("d0", "the grand canal at dusk").ok());
    EXPECT_TRUE(
        engine_.AddDocument("d1", "a canal and a grand palace").ok());
    EXPECT_TRUE(engine_.AddDocument("d2", "mountain glacier summit").ok());
    EXPECT_TRUE(engine_.Finalize().ok());
  }
  SearchEngine engine_;
};

TEST_F(ScoringTest, ExactPhraseBeatsScatteredWords) {
  auto results = engine_.SearchText("#1(grand canal)", 3);
  ASSERT_TRUE(results.ok());
  ASSERT_GE(results->size(), 1u);
  EXPECT_EQ(results->front().doc, 0u);
  // d1 contains both words but not adjacent → no phrase match.
  for (const ScoredDoc& sd : *results) {
    EXPECT_NE(sd.doc, 2u);
  }
}

TEST_F(ScoringTest, TermQueryRanksByTf) {
  SearchEngine engine;
  ASSERT_TRUE(engine.AddDocument("a", "canal canal canal").ok());
  ASSERT_TRUE(engine.AddDocument("b", "canal boat boat").ok());
  ASSERT_TRUE(engine.Finalize().ok());
  auto results = engine.SearchText("canal", 2);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);
  EXPECT_EQ(results->front().doc, 0u);
  EXPECT_GT((*results)[0].score, (*results)[1].score);
}

TEST_F(ScoringTest, CombineAveragesAcrossLeaves) {
  // Doc matching both leaves must outrank docs matching one.
  SearchEngine engine;
  ASSERT_TRUE(engine.AddDocument("both", "gondola venice").ok());
  ASSERT_TRUE(engine.AddDocument("one", "gondola mountain").ok());
  ASSERT_TRUE(engine.Finalize().ok());
  auto results = engine.SearchText("#combine(gondola venice)", 2);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->front().doc, 0u);
}

TEST_F(ScoringTest, PureStopwordQueryFails) {
  auto results = engine_.SearchText("#combine(the of)", 5);
  EXPECT_TRUE(results.status().IsInvalidArgument());
}

TEST_F(ScoringTest, DeterministicTieBreakByDocId) {
  SearchEngine engine;
  ASSERT_TRUE(engine.AddDocument("x", "canal").ok());
  ASSERT_TRUE(engine.AddDocument("y", "canal").ok());
  ASSERT_TRUE(engine.Finalize().ok());
  auto results = engine.SearchText("canal", 2);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);
  EXPECT_LT(results->front().doc, results->back().doc);
}

TEST_F(ScoringTest, TopKTruncates) {
  auto results = engine_.SearchText("canal", 1);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 1u);
}

// Regression for the serving layer's determinism contract (scorer.h): a
// large all-tied candidate set must rank by ascending DocId, stay stable
// across repeated evaluations, and cut deterministically when the top-k
// boundary lands inside the tie group.  Parallel-vs-sequential ranking
// equality in serve_test.cc is only well-defined because of this.
TEST_F(ScoringTest, TieBreakIsStableAcrossRepeatedEvaluations) {
  SearchEngine engine;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        engine.AddDocument("doc" + std::to_string(i), "gondola pier").ok());
  }
  ASSERT_TRUE(engine.Finalize().ok());
  auto first = engine.SearchText("gondola", 25);  // cut inside the tie
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 25u);
  for (size_t i = 1; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].score, (*first)[i - 1].score);
    EXPECT_GT((*first)[i].doc, (*first)[i - 1].doc);
  }
  for (int round = 0; round < 3; ++round) {
    auto again = engine.SearchText("gondola", 25);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *first) << "round " << round;
  }
}

// --------------------------------------------- frozen index vs the oracle

/// The oracle over `engine`'s collection: the map-based index and the
/// reference evaluator, with the engine's analyzer and the default
/// scoring options every engine in this file uses.
class Oracle {
 public:
  explicit Oracle(const SearchEngine& engine)
      : index_(&engine.analyzer()), evaluator_(&index_) {
    EXPECT_TRUE(index_.AddAll(engine.store()).ok());
  }
  Result<std::vector<ScoredDoc>> Evaluate(const QueryNode& query,
                                          size_t k) const {
    return evaluator_.Evaluate(query, k);
  }

 private:
  InvertedIndex index_;
  QueryEvaluator evaluator_;
};

/// Requires `engine`'s ranking of `query` to equal the oracle's document
/// for document and score for score (bit for bit), or both to fail with
/// the same code.
void ExpectOracleRanking(const SearchEngine& engine, const Oracle& oracle,
                         const QueryNode& query, size_t k) {
  SCOPED_TRACE(query.ToString() + " k=" + std::to_string(k));
  auto got = engine.Search(query, k);
  auto want = oracle.Evaluate(query, k);
  ASSERT_EQ(got.ok(), want.ok()) << got.status() << " vs " << want.status();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    return;
  }
  ASSERT_EQ(got->size(), want->size());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ((*got)[i].doc, (*want)[i].doc) << "rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>((*got)[i].score),
              std::bit_cast<uint64_t>((*want)[i].score))
        << "rank " << i << ": " << (*got)[i].score << " vs "
        << (*want)[i].score;
  }
}

void ExpectOracleRanking(const SearchEngine& engine, const Oracle& oracle,
                         std::string_view query_text) {
  auto query = ParseQuery(query_text);
  ASSERT_TRUE(query.ok()) << query.status();
  for (size_t k : {size_t{0}, size_t{1}, size_t{2}, size_t{1000}}) {
    ExpectOracleRanking(engine, oracle, *query, k);
  }
}

/// A random text over `vocabulary` of up to `max_words` words.
std::string RandomText(Rng& rng, const std::vector<std::string>& vocabulary,
                       uint32_t max_words) {
  std::string text;
  const uint32_t words = rng.Uniform(max_words + 1);
  for (uint32_t w = 0; w < words; ++w) {
    if (!text.empty()) text += ' ';
    text += vocabulary[rng.Uniform(static_cast<uint32_t>(vocabulary.size()))];
  }
  return text;
}

/// A random `#combine` of 1–4 leaves, each a term or a phrase of up to 5
/// words over `vocabulary`.
QueryNode RandomQuery(Rng& rng, const std::vector<std::string>& vocabulary) {
  std::vector<QueryNode> leaves;
  const uint32_t num_leaves = 1 + rng.Uniform(4);
  for (uint32_t l = 0; l < num_leaves; ++l) {
    std::vector<std::string> words;
    const uint32_t length = 1 + rng.Uniform(5);
    for (uint32_t w = 0; w < length; ++w) {
      words.push_back(
          vocabulary[rng.Uniform(static_cast<uint32_t>(vocabulary.size()))]);
    }
    leaves.push_back(words.size() == 1 ? QueryNode::Term(words[0])
                                       : QueryNode::Phrase(std::move(words)));
  }
  return QueryNode::Combine(std::move(leaves));
}

const std::vector<std::string>& Words() {
  static const std::vector<std::string> words = {
      "venice", "canal",  "grand", "gondola", "bridge",
      "sighs",  "palace", "doge",  "the",     "of"};
  return words;
}

TEST(OracleRankingTest, RandomCorporaWithSmallVocabularies) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // 2–7 content words plus the two stopwords: phrases repeat, overlap
    // and span stopwords often.
    const size_t content = 2 + seed % 6;
    std::vector<std::string> vocabulary(Words().begin(),
                                        Words().begin() + content);
    vocabulary.push_back("the");
    vocabulary.push_back("of");
    SearchEngine engine;
    const uint32_t num_docs = 1 + rng.Uniform(40);
    for (uint32_t d = 0; d < num_docs; ++d) {
      ASSERT_TRUE(engine
                      .AddDocument("doc" + std::to_string(d),
                                   RandomText(rng, vocabulary, 12))
                      .ok());
    }
    ASSERT_TRUE(engine.Finalize().ok());
    Oracle oracle(engine);
    // Queries may also name words the collection never saw.
    std::vector<std::string> query_words = vocabulary;
    query_words.push_back("zzz");
    query_words.push_back(Words()[content % Words().size()]);
    for (int q = 0; q < 40; ++q) {
      const QueryNode query = RandomQuery(rng, query_words);
      const size_t k = std::vector<size_t>{0, 1, 3, 10, 1000}[rng.Uniform(5)];
      ExpectOracleRanking(engine, oracle, query, k);
    }
  }
}

class OracleEdgeCaseTest : public ::testing::Test {
 protected:
  OracleEdgeCaseTest() {
    for (const char* text :
         {"the gondola in venice", "venice venice gondola",
          "venice venice venice", "grand canal of venice",
          "the bridge of sighs in venice", "bridge sighs venice",
          "bridge near sighs venice", "the of", "",
          "canal grand canal grand canal"}) {
      EXPECT_TRUE(
          engine_.AddDocument("d" + std::to_string(next_++), text).ok());
    }
    EXPECT_TRUE(engine_.Finalize().ok());
  }
  int next_ = 0;
  SearchEngine engine_;
};

TEST_F(OracleEdgeCaseTest, RepeatedTermPhrases) {
  Oracle oracle(engine_);
  ExpectOracleRanking(engine_, oracle, "#1(venice venice)");
  ExpectOracleRanking(engine_, oracle, "#1(venice venice venice)");
  ExpectOracleRanking(engine_, oracle, "#1(canal grand canal)");  // overlaps
  ExpectOracleRanking(engine_, oracle, "#1(canal grand canal grand canal)");
  ExpectOracleRanking(engine_, oracle, "#1(grand canal grand canal)");
  ExpectOracleRanking(engine_, oracle, "#1(canal grand canal canal)");
  ExpectOracleRanking(engine_, oracle, "#combine(#1(venice venice) gondola)");
}

TEST_F(OracleEdgeCaseTest, PhrasesSpanningStopwords) {
  Oracle oracle(engine_);
  ExpectOracleRanking(engine_, oracle, "#1(bridge of sighs)");
  ExpectOracleRanking(engine_, oracle, "#1(canal of venice)");
  ExpectOracleRanking(engine_, oracle, "#1(the bridge of the sighs)");
}

TEST_F(OracleEdgeCaseTest, OutOfVocabularyTerms) {
  Oracle oracle(engine_);
  ExpectOracleRanking(engine_, oracle, "zzz");
  ExpectOracleRanking(engine_, oracle, "#combine(zzz venice)");
  ExpectOracleRanking(engine_, oracle, "#1(zzz venice)");
  ExpectOracleRanking(engine_, oracle, "#1(grand zzz canal)");
  ExpectOracleRanking(engine_, oracle, "#combine(#1(grand zzz) canal)");
}

TEST_F(OracleEdgeCaseTest, StopwordAndDuplicateLeaves) {
  Oracle oracle(engine_);
  ExpectOracleRanking(engine_, oracle, "#combine(the venice)");
  ExpectOracleRanking(engine_, oracle, "#combine(#1(the of) gondola)");
  ExpectOracleRanking(engine_, oracle, "#combine(the of)");  // both fail
  ExpectOracleRanking(engine_, oracle, "#1(the of)");
  ExpectOracleRanking(engine_, oracle, "#combine(venice venice)");
  ExpectOracleRanking(engine_, oracle,
                      "#combine(#1(grand canal) #1(grand canal) venice)");
  ExpectOracleRanking(engine_, oracle, "#combine(#combine(canal) canal)");
}

TEST(OracleRankingTest, TiesCutAtK) {
  SearchEngine engine;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(engine
                    .AddDocument("doc" + std::to_string(i),
                                 i % 3 == 0 ? "gondola pier" : "gondola dock")
                    .ok());
  }
  ASSERT_TRUE(engine.Finalize().ok());
  Oracle oracle(engine);
  auto query = ParseQuery("#combine(gondola pier)");
  ASSERT_TRUE(query.ok());
  for (size_t k : {size_t{0}, size_t{1}, size_t{13}, size_t{14}, size_t{25},
                   size_t{40}, size_t{41}}) {
    ExpectOracleRanking(engine, oracle, *query, k);
  }
}

// ------------------------------------------------------- prepared queries

TEST_F(OracleEdgeCaseTest, PrepareMarksOovAndDropsStopwordLeaves) {
  auto query = ParseQuery("#combine(the #1(grand zzz canal) venice #1(of the))");
  ASSERT_TRUE(query.ok());
  auto prepared = engine_.Prepare(*query);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_EQ(prepared->index_id, engine_.index().id());
  ASSERT_EQ(prepared->num_leaves(), 2u);
  const FrozenIndex& index = engine_.index();
  const std::span<const TermId> phrase = prepared->leaf(0);
  EXPECT_EQ(std::vector<TermId>(phrase.begin(), phrase.end()),
            (std::vector<TermId>{index.Lookup("grand"), kOovTerm,
                                 index.Lookup("canal")}));
  const std::span<const TermId> term = prepared->leaf(1);
  EXPECT_EQ(std::vector<TermId>(term.begin(), term.end()),
            (std::vector<TermId>{index.Lookup("venic")}));
  // Preparing once and ranking many times is the same as ranking the AST.
  EXPECT_EQ(*engine_.Search(*prepared, 5), *engine_.Search(*query, 5));
}

TEST_F(OracleEdgeCaseTest, QueryPreparedElsewhereIsRejected) {
  auto query = ParseQuery("#combine(venice #1(grand canal))");
  ASSERT_TRUE(query.ok());
  EXPECT_TRUE(engine_.Search(PreparedQuery{}, 5).status().IsInvalidArgument());

  // Same collection, separate build: its ids are not this engine's.
  SearchEngine other;
  for (const Document& doc : engine_.store().documents()) {
    ASSERT_TRUE(other.AddDocument(doc.name, doc.text).ok());
  }
  ASSERT_TRUE(other.Finalize().ok());
  auto foreign = other.Prepare(*query);
  ASSERT_TRUE(foreign.ok());
  EXPECT_NE(foreign->index_id, engine_.index().id());
  EXPECT_TRUE(engine_.Search(*foreign, 5).status().IsInvalidArgument());

  // A query with this index's id but a broken shape fails cleanly.
  auto prepared = engine_.Prepare(*query);
  ASSERT_TRUE(prepared.ok());
  PreparedQuery bad_term = *prepared;
  bad_term.terms[0] = static_cast<TermId>(engine_.index().num_terms());
  EXPECT_TRUE(engine_.Search(bad_term, 5).status().IsInvalidArgument());
  PreparedQuery bad_leaves = *prepared;
  bad_leaves.leaf_end.back() += 1;
  EXPECT_TRUE(engine_.Search(bad_leaves, 5).status().IsInvalidArgument());
  PreparedQuery empty_leaf = *prepared;
  empty_leaf.leaf_end.insert(empty_leaf.leaf_end.begin(), 0);
  EXPECT_TRUE(engine_.Search(empty_leaf, 5).status().IsInvalidArgument());

  SearchEngine unfinalized;
  EXPECT_TRUE(unfinalized.Prepare(*query).status().IsInvalidArgument());
  EXPECT_TRUE(
      unfinalized.Search(PreparedQuery{}, 5).status().IsInvalidArgument());
}

// The serving layer's contract (ranker.h): one engine searched from
// several threads returns, bit for bit, what sequential searches return.
TEST(SearchConcurrencyTest, FourThreadsMatchSequentialBitForBit) {
  Rng rng(7);
  SearchEngine engine;
  for (int d = 0; d < 300; ++d) {
    ASSERT_TRUE(engine
                    .AddDocument("doc" + std::to_string(d),
                                 RandomText(rng, Words(), 16))
                    .ok());
  }
  ASSERT_TRUE(engine.Finalize().ok());
  std::vector<PreparedQuery> queries;
  std::vector<std::vector<ScoredDoc>> sequential;
  for (int q = 0; q < 48; ++q) {
    auto prepared = engine.Prepare(RandomQuery(rng, Words()));
    ASSERT_TRUE(prepared.ok());
    auto ranked = engine.Search(*prepared, 10);
    if (!ranked.ok()) continue;  // an all-stopword draw
    queries.push_back(std::move(*prepared));
    sequential.push_back(std::move(*ranked));
  }
  ASSERT_GT(queries.size(), 30u);

  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  std::vector<std::vector<std::vector<ScoredDoc>>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Each thread walks the queries from its own offset.
        for (size_t i = 0; i < queries.size(); ++i) {
          const size_t q = (i + static_cast<size_t>(t) * 11) % queries.size();
          auto ranked = engine.Search(queries[q], 10);
          results[t].push_back(ranked.ok() ? std::move(*ranked)
                                           : std::vector<ScoredDoc>{});
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(results[t].size(), kRounds * queries.size());
    for (size_t r = 0; r < results[t].size(); ++r) {
      const size_t q =
          (r % queries.size() + static_cast<size_t>(t) * 11) % queries.size();
      const std::vector<ScoredDoc>& got = results[t][r];
      ASSERT_EQ(got.size(), sequential[q].size()) << "thread " << t;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].doc, sequential[q][i].doc);
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i].score),
                  std::bit_cast<uint64_t>(sequential[q][i].score));
      }
    }
  }
}

TEST(SearchEngineTest, LifecycleErrors) {
  SearchEngine engine;
  EXPECT_TRUE(engine.SearchText("x", 5).status().IsInvalidArgument());
  EXPECT_TRUE(engine.Finalize().IsInvalidArgument());  // no docs
  ASSERT_TRUE(engine.AddDocument("d", "text").ok());
  ASSERT_TRUE(engine.Finalize().ok());
  EXPECT_TRUE(engine.AddDocument("late", "x").status().IsInvalidArgument());
  EXPECT_TRUE(engine.Finalize().IsInvalidArgument());  // double finalize
}

// -------------------------------------------------------------- Evaluation

class EvalTest : public ::testing::Test {
 protected:
  // Ranked docs 0..9; relevant = {0, 2, 4, 100}.
  EvalTest() {
    for (DocId d = 0; d < 10; ++d) {
      results_.push_back({d, 10.0 - d});
    }
    relevant_ = {0, 2, 4, 100};
  }
  std::vector<ScoredDoc> results_;
  RelevantSet relevant_;
};

TEST_F(EvalTest, PrecisionAtR) {
  EXPECT_DOUBLE_EQ(PrecisionAtR(results_, relevant_, 1), 1.0);
  EXPECT_DOUBLE_EQ(PrecisionAtR(results_, relevant_, 5), 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(PrecisionAtR(results_, relevant_, 10), 0.3);
  // Missing ranks count against the denominator (paper definition).
  EXPECT_DOUBLE_EQ(PrecisionAtR(results_, relevant_, 15), 3.0 / 15.0);
  EXPECT_DOUBLE_EQ(PrecisionAtR(results_, relevant_, 0), 0.0);
  EXPECT_DOUBLE_EQ(PrecisionAtR({}, relevant_, 5), 0.0);
}

TEST_F(EvalTest, Equation1AveragesCutoffs) {
  double expected =
      (1.0 + 3.0 / 5.0 + 3.0 / 10.0 + 3.0 / 15.0) / 4.0;
  EXPECT_DOUBLE_EQ(AverageTopRPrecision(results_, relevant_), expected);
  EXPECT_DOUBLE_EQ(
      AverageTopRPrecision(results_, relevant_, {1}), 1.0);
  EXPECT_DOUBLE_EQ(AverageTopRPrecision(results_, relevant_, {}), 0.0);
}

TEST_F(EvalTest, RecallAtR) {
  EXPECT_DOUBLE_EQ(RecallAtR(results_, relevant_, 5), 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(RecallAtR(results_, {}, 5), 0.0);
}

TEST_F(EvalTest, AveragePrecision) {
  // Hits at ranks 1, 3, 5: AP = (1/1 + 2/3 + 3/5) / 4.
  double expected = (1.0 + 2.0 / 3.0 + 3.0 / 5.0) / 4.0;
  EXPECT_NEAR(AveragePrecision(results_, relevant_), expected, 1e-12);
  EXPECT_DOUBLE_EQ(AveragePrecision(results_, {}), 0.0);
}

TEST_F(EvalTest, NdcgBounds) {
  double ndcg = NdcgAtR(results_, relevant_, 10);
  EXPECT_GT(ndcg, 0.0);
  EXPECT_LE(ndcg, 1.0);
  // Perfect ranking of a single relevant doc.
  std::vector<ScoredDoc> perfect = {{5, 1.0}};
  EXPECT_DOUBLE_EQ(NdcgAtR(perfect, {5}, 1), 1.0);
  EXPECT_DOUBLE_EQ(NdcgAtR(perfect, {}, 5), 0.0);
}

TEST(PaperCutoffsTest, MatchesPaper) {
  const auto& r = PaperRankCutoffs();
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r[0], 1u);
  EXPECT_EQ(r[3], 15u);
}

}  // namespace
}  // namespace wqe::ir
