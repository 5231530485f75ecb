/// \file text_test.cc
/// \brief Tests for tokenizer, Porter stemmer, stopwords and the analyzer.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "text/analyzer.h"
#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace wqe::text {
namespace {

// -------------------------------------------------------------- Tokenizer

TEST(TokenizerTest, BasicWordsLowercasedWithOffsets) {
  Tokenizer t;
  auto tokens = t.Tokenize("Gondola in Venice");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "gondola");
  EXPECT_EQ(tokens[0].begin, 0u);
  EXPECT_EQ(tokens[0].end, 7u);
  EXPECT_EQ(tokens[2].text, "venice");
  EXPECT_EQ(tokens[2].begin, 11u);
}

TEST(TokenizerTest, PunctuationSplits) {
  Tokenizer t;
  auto tokens = t.TokenizeToStrings("field (Hamois, Belgium)!");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "field");
  EXPECT_EQ(tokens[1], "hamois");
  EXPECT_EQ(tokens[2], "belgium");
}

TEST(TokenizerTest, InnerHyphenAndApostropheKept) {
  Tokenizer t;
  auto tokens = t.TokenizeToStrings("bouches-du-rhone o'neill -leading");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "bouches-du-rhone");
  EXPECT_EQ(tokens[1], "o'neill");
  EXPECT_EQ(tokens[2], "leading");
}

TEST(TokenizerTest, NumbersKept) {
  Tokenizer t;
  auto tokens = t.TokenizeToStrings("1712 establishments");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "1712");
}

TEST(TokenizerTest, Utf8BytesSurvive) {
  Tokenizer t;
  auto tokens = t.TokenizeToStrings("blühendes Feld");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "blühendes");
}

TEST(TokenizerTest, EmptyAndAllPunct) {
  Tokenizer t;
  EXPECT_TRUE(t.Tokenize("").empty());
  EXPECT_TRUE(t.Tokenize("... !!! ???").empty());
}

/// Inputs that stress token boundaries and analysis: casings of one
/// word, capitalized stopwords, inner and dangling `-`/`'`, digits, UTF-8
/// bytes, tokens past 15 bytes and variants that stem together, plus
/// seeded random gluings of them.
std::vector<std::string> AdversarialInputs() {
  static const std::vector<std::string> words = {
      "Venice", "VENICE", "venice", "The", "OF", "of", "In",
      "bouches-du-rhone", "O'Neill", "o'neill", "rock-", "-rock", "'tis",
      "rock--roll", "1712", "2nd", "blühendes", "BLÜHENDES",
      "INTERNATIONALIZATIONS", "counterrevolutionaries", "connect",
      "Connected", "connecting", "...", "(", ""};
  static const std::vector<std::string> separators = {" ", ", ", "-", "'",
                                                      "\n", ""};
  std::vector<std::string> inputs = {"", "... !!! ???", "The Bridge OF Sighs",
                                     "-rock- rock-- 'o'neill'"};
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    std::string text;
    const uint32_t length = rng.Uniform(12);
    for (uint32_t w = 0; w < length; ++w) {
      text += separators[rng.Uniform(static_cast<uint32_t>(separators.size()))];
      text += words[rng.Uniform(static_cast<uint32_t>(words.size()))];
    }
    inputs.push_back(std::move(text));
  }
  return inputs;
}

TEST(TokenizerTest, TokenizeIsTheSpanScanLowercased) {
  Tokenizer t;
  for (const std::string& input : AdversarialInputs()) {
    SCOPED_TRACE(input);
    std::vector<Token> spans;
    std::string outside;  // every byte no span covers
    size_t last = 0;
    Tokenizer::ForEachSpan(input, [&](size_t begin, size_t end) {
      ASSERT_LE(last, begin);
      ASSERT_LT(begin, end);
      ASSERT_LE(end, input.size());
      // A span starts and ends on a word byte.
      EXPECT_TRUE(Tokenizer::IsWordByte(input[begin]));
      EXPECT_TRUE(Tokenizer::IsWordByte(input[end - 1]));
      outside += input.substr(last, begin - last);
      last = end;
      spans.push_back(
          Token{ToLower(input.substr(begin, end - begin)), begin, end});
    });
    outside += input.substr(last);
    for (char c : outside) EXPECT_FALSE(Tokenizer::IsWordByte(c)) << c;
    EXPECT_EQ(t.Tokenize(input), spans);
  }
}

// ----------------------------------------------------------- PorterStemmer

struct StemCase {
  const char* in;
  const char* out;
};

class PorterStemmerTest : public ::testing::TestWithParam<StemCase> {};

TEST_P(PorterStemmerTest, MatchesReferenceVector) {
  PorterStemmer stemmer;
  EXPECT_EQ(stemmer.Stem(GetParam().in), GetParam().out)
      << "input: " << GetParam().in;
}

// Vectors from Porter's original paper and the standard voc/output list.
INSTANTIATE_TEST_SUITE_P(
    ReferenceVectors, PorterStemmerTest,
    ::testing::Values(
        StemCase{"caresses", "caress"}, StemCase{"ponies", "poni"},
        StemCase{"ties", "ti"}, StemCase{"caress", "caress"},
        StemCase{"cats", "cat"}, StemCase{"feed", "feed"},
        StemCase{"agreed", "agre"}, StemCase{"plastered", "plaster"},
        StemCase{"bled", "bled"}, StemCase{"motoring", "motor"},
        StemCase{"sing", "sing"}, StemCase{"conflated", "conflat"},
        StemCase{"troubled", "troubl"}, StemCase{"sized", "size"},
        StemCase{"hopping", "hop"}, StemCase{"tanned", "tan"},
        StemCase{"falling", "fall"}, StemCase{"hissing", "hiss"},
        StemCase{"fizzed", "fizz"}, StemCase{"failing", "fail"},
        StemCase{"filing", "file"}, StemCase{"happy", "happi"},
        StemCase{"sky", "sky"}, StemCase{"relational", "relat"},
        StemCase{"conditional", "condit"}, StemCase{"rational", "ration"},
        StemCase{"valenci", "valenc"}, StemCase{"hesitanci", "hesit"},
        StemCase{"digitizer", "digit"}, StemCase{"conformabli", "conform"},
        StemCase{"radicalli", "radic"}, StemCase{"differentli", "differ"},
        StemCase{"vileli", "vile"}, StemCase{"analogousli", "analog"},
        StemCase{"vietnamization", "vietnam"}, StemCase{"predication", "predic"},
        StemCase{"operator", "oper"}, StemCase{"feudalism", "feudal"},
        StemCase{"decisiveness", "decis"}, StemCase{"hopefulness", "hope"},
        StemCase{"callousness", "callous"}, StemCase{"formaliti", "formal"},
        StemCase{"sensitiviti", "sensit"}, StemCase{"sensibiliti", "sensibl"},
        StemCase{"triplicate", "triplic"}, StemCase{"formative", "form"},
        StemCase{"formalize", "formal"}, StemCase{"electriciti", "electr"},
        StemCase{"electrical", "electr"}, StemCase{"hopeful", "hope"},
        StemCase{"goodness", "good"}, StemCase{"revival", "reviv"},
        StemCase{"allowance", "allow"}, StemCase{"inference", "infer"},
        StemCase{"airliner", "airlin"}, StemCase{"gyroscopic", "gyroscop"},
        StemCase{"adjustable", "adjust"}, StemCase{"defensible", "defens"},
        StemCase{"irritant", "irrit"}, StemCase{"replacement", "replac"},
        StemCase{"adjustment", "adjust"}, StemCase{"dependent", "depend"},
        StemCase{"adoption", "adopt"}, StemCase{"homologou", "homolog"},
        StemCase{"communism", "commun"}, StemCase{"activate", "activ"},
        StemCase{"angulariti", "angular"}, StemCase{"homologous", "homolog"},
        StemCase{"effective", "effect"}, StemCase{"bowdlerize", "bowdler"},
        StemCase{"probate", "probat"}, StemCase{"rate", "rate"},
        StemCase{"cease", "ceas"}, StemCase{"controll", "control"},
        StemCase{"roll", "roll"}));

TEST(PorterStemmerEdgeTest, ShortAndNonAlphaUnchanged) {
  PorterStemmer stemmer;
  EXPECT_EQ(stemmer.Stem("at"), "at");
  EXPECT_EQ(stemmer.Stem("be"), "be");
  EXPECT_EQ(stemmer.Stem("1712"), "1712");
  EXPECT_EQ(stemmer.Stem("bouches-du-rhone"), "bouches-du-rhone");
  EXPECT_EQ(stemmer.Stem(""), "");
}

TEST(PorterStemmerEdgeTest, QueryAndDocConflate) {
  PorterStemmer stemmer;
  // Retrieval correctness depends on query/document conflation.
  EXPECT_EQ(stemmer.Stem("gondolas"), stemmer.Stem("gondola"));
  EXPECT_EQ(stemmer.Stem("bridges"), stemmer.Stem("bridge"));
  EXPECT_EQ(stemmer.Stem("painting"), stemmer.Stem("paintings"));
}

// --------------------------------------------------------------- Stopwords

TEST(StopwordsTest, DefaultContainsFunctionWords) {
  const StopwordSet& sw = StopwordSet::Default();
  EXPECT_TRUE(sw.Contains("the"));
  EXPECT_TRUE(sw.Contains("of"));
  EXPECT_TRUE(sw.Contains("in"));
  EXPECT_FALSE(sw.Contains("venice"));
  EXPECT_FALSE(sw.Contains("gondola"));
  EXPECT_GT(sw.size(), 100u);
}

// ---------------------------------------------------------------- Analyzer

TEST(AnalyzerTest, FullPipelineStopsAndStems) {
  Analyzer analyzer;
  auto terms = analyzer.AnalyzeToStrings("the bridges of Venice");
  ASSERT_EQ(terms.size(), 2u);
  EXPECT_EQ(terms[0], "bridg");
  EXPECT_EQ(terms[1], "venic");
}

TEST(AnalyzerTest, PositionsCompactedOverStopwords) {
  // "bridge of sighs": "of" removed and positions compacted (INDRI-style
  // stopping), so the kept terms are adjacent — exact-phrase titles with
  // inner stopwords match verbatim document text.
  Analyzer analyzer;
  auto terms = analyzer.Analyze("bridge of sighs");
  ASSERT_EQ(terms.size(), 2u);
  EXPECT_EQ(terms[0].position, 0u);
  EXPECT_EQ(terms[1].position, 1u);
}

TEST(AnalyzerTest, AnalyzeIsTokenizeThenStopThenStem) {
  // The pipeline spelled out step by step: a kept token's position is
  // its index among the kept tokens.
  Analyzer analyzer;
  PorterStemmer stemmer;
  for (const std::string& input : AdversarialInputs()) {
    SCOPED_TRACE(input);
    std::vector<AnalyzedTerm> want;
    for (const Token& token : Tokenizer().Tokenize(input)) {
      if (StopwordSet::Default().Contains(token.text)) continue;
      want.push_back(AnalyzedTerm{stemmer.Stem(token.text),
                                  static_cast<uint32_t>(want.size()),
                                  token.begin, token.end});
    }
    const std::vector<AnalyzedTerm> got = analyzer.Analyze(input);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].term, want[i].term);
      EXPECT_EQ(got[i].position, want[i].position);
      EXPECT_EQ(got[i].begin, want[i].begin);
      EXPECT_EQ(got[i].end, want[i].end);
    }
  }
}

TEST(AnalyzerTest, SpansPointIntoSource) {
  Analyzer analyzer;
  std::string input = "grand canal";
  auto terms = analyzer.Analyze(input);
  ASSERT_EQ(terms.size(), 2u);
  EXPECT_EQ(input.substr(terms[1].begin, terms[1].end - terms[1].begin),
            "canal");
}

}  // namespace
}  // namespace wqe::text
