/// \file clef_test.cc
/// \brief Tests for image metadata (Figure 2 schema), §2.1 extraction and
/// the synthetic track generator.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "clef/image_metadata.h"
#include "clef/track.h"
#include "clef/track_generator.h"
#include "wiki/synthetic.h"

namespace wqe::clef {
namespace {

ImageMetadata SampleMeta() {
  ImageMetadata meta;
  meta.id = 82531;
  meta.file = "images/9/82531.jpg";
  meta.name = "Field Hamois Belgium Luc Viatour.jpg";
  LanguageSection en;
  en.lang = "en";
  en.description = "Summer field in Belgium (Hamois).";
  en.captions.push_back({"text/en/1/302887", "Summer field in Belgium."});
  en.captions.push_back({"text/en/1/303807", "A field in summer."});
  meta.sections.push_back(en);
  LanguageSection de;
  de.lang = "de";
  de.description = "Ein blühendes Feld in Belgien.";
  meta.sections.push_back(de);
  meta.general_comment =
      "({{Information |Description= Flowers in Belgium |Source= Flickr "
      "|Date= 1/1/85 |Author= JA |Permission= GFDL |other_versions= }})";
  meta.license = "GFDL";
  return meta;
}

TEST(ImageMetadataTest, XmlRoundTrip) {
  ImageMetadata meta = SampleMeta();
  std::string xml = meta.ToXml();
  auto parsed = ParseImageMetadata(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->id, meta.id);
  EXPECT_EQ(parsed->file, meta.file);
  EXPECT_EQ(parsed->name, meta.name);
  ASSERT_EQ(parsed->sections.size(), 2u);
  EXPECT_EQ(parsed->sections[0].lang, "en");
  EXPECT_EQ(parsed->sections[0].description, meta.sections[0].description);
  ASSERT_EQ(parsed->sections[0].captions.size(), 2u);
  EXPECT_EQ(parsed->sections[0].captions[0].article_ref, "text/en/1/302887");
  EXPECT_EQ(parsed->general_comment, meta.general_comment);
  EXPECT_EQ(parsed->license, "GFDL");
}

TEST(ImageMetadataTest, ParsePaperStyleDocument) {
  // Mirrors the layout of the paper's Figure 2.
  const char* xml = R"(<?xml version="1.0" encoding="UTF-8" ?>
<image id="82531" file="images/9/82531.jpg">
  <name>Field Hamois.jpg</name>
  <text xml:lang="en">
    <description>Summer field.</description>
    <comment />
    <caption article="text/en/1/302887">A field.</caption>
  </text>
  <text xml:lang="fr">
    <description>Un champ.</description>
    <comment />
  </text>
  <comment>({{Information |Description= Flowers |Source= Flickr }})</comment>
  <license>GFDL</license>
</image>)";
  auto parsed = ParseImageMetadata(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->id, 82531u);
  ASSERT_NE(parsed->FindSection("en"), nullptr);
  EXPECT_EQ(parsed->FindSection("en")->captions.size(), 1u);
  EXPECT_EQ(parsed->FindSection("xx"), nullptr);
}

TEST(ImageMetadataTest, ParseErrors) {
  EXPECT_TRUE(ParseImageMetadata("<other/>").status().IsParseError());
  EXPECT_TRUE(ParseImageMetadata("").status().IsParseError());
}

// An id is the whole attribute, digits only, within uint32.  An absent or
// empty one means 0.
TEST(ImageMetadataTest, IdAttributeIsADecimalUint32) {
  auto image = [](const std::string& id_attribute) {
    return ParseImageMetadata("<image" + id_attribute + "><name>x</name>" +
                              "<license>GFDL</license></image>");
  };
  for (const char* bad : {"abc", "7x", "4294967297", "-3", "+7", "1 2"}) {
    SCOPED_TRACE(bad);
    const auto parsed = image(std::string(" id=\"") + bad + "\"");
    EXPECT_TRUE(parsed.status().IsParseError()) << parsed.status();
    EXPECT_NE(parsed.status().message().find("id attribute"),
              std::string::npos)
        << parsed.status();
  }
  for (const auto& [attribute, id] :
       std::vector<std::pair<std::string, uint32_t>>{
           {"", 0}, {" id=\"\"", 0}, {" id=\" 12 \"", 12},
           {" id=\"4294967295\"", 4294967295u}}) {
    SCOPED_TRACE(attribute);
    const auto parsed = image(attribute);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed->id, id);
  }
}

TEST(ExtractTemplateDescriptionTest, PullsDescriptionField) {
  EXPECT_EQ(ExtractTemplateDescription(
                "({{Information |Description= Flowers in Belgium |Source= "
                "Flickr }})"),
            "Flowers in Belgium");
  EXPECT_EQ(ExtractTemplateDescription("({{Information |Description= X }})"),
            "X");
  EXPECT_EQ(ExtractTemplateDescription("no template"), "");
  EXPECT_EQ(ExtractTemplateDescription("({{Information |Source= y }})"), "");
}

TEST(ExtractLinkedTextTest, FollowsPaperRules) {
  ImageMetadata meta = SampleMeta();
  std::string text = ExtractLinkedText(meta);
  // ① file name without extension.
  EXPECT_NE(text.find("Field Hamois Belgium Luc Viatour"), std::string::npos);
  EXPECT_EQ(text.find(".jpg"), std::string::npos);
  // ② English section (description + captions).
  EXPECT_NE(text.find("Summer field in Belgium (Hamois)."), std::string::npos);
  EXPECT_NE(text.find("A field in summer."), std::string::npos);
  // ③ general-comment template description.
  EXPECT_NE(text.find("Flowers in Belgium"), std::string::npos);
  // German section ignored.
  EXPECT_EQ(text.find("blühendes"), std::string::npos);
}

TEST(ExtractLinkedTextTest, MissingPiecesAreSkipped) {
  ImageMetadata meta;
  meta.name = "lonely.jpg";
  EXPECT_EQ(ExtractLinkedText(meta), "lonely");
  meta.name = "noextension";
  EXPECT_EQ(ExtractLinkedText(meta), "noextension");
}

// ---------------------------------------------------------- TrackGenerator

class TrackGeneratorTest : public ::testing::Test {
 protected:
  static const wiki::SyntheticWikipedia& Wiki() {
    static const wiki::SyntheticWikipedia* kWiki = [] {
      wiki::SyntheticWikipediaOptions options;
      options.num_domains = 12;
      auto result = wiki::GenerateSyntheticWikipedia(options);
      EXPECT_TRUE(result.ok());
      return new wiki::SyntheticWikipedia(std::move(result).ValueOrDie());
    }();
    return *kWiki;
  }
  static const Track& GetTrack() {
    static const Track* kTrack = [] {
      TrackGeneratorOptions options;
      options.num_topics = 10;
      options.background_docs = 100;
      auto result = GenerateTrack(Wiki(), options);
      EXPECT_TRUE(result.ok()) << result.status();
      return new Track(std::move(result).ValueOrDie());
    }();
    return *kTrack;
  }
};

TEST_F(TrackGeneratorTest, ShapeMatchesOptions) {
  const Track& track = GetTrack();
  EXPECT_EQ(track.topics.size(), 10u);
  // documents = relevant + distractors + background
  EXPECT_GT(track.documents.size(), 100u + 10u * 30u);
  for (const Topic& t : track.topics) {
    EXPECT_FALSE(t.keywords.empty());
    EXPECT_GE(t.relevant.size(), 25u);
    EXPECT_LE(t.relevant.size(), 40u);
    EXPECT_FALSE(t.query_articles.empty());
    EXPECT_FALSE(t.planted_good.empty());
  }
}

TEST_F(TrackGeneratorTest, QrelsReferenceExistingDocuments) {
  const Track& track = GetTrack();
  std::set<std::string> names;
  for (const TrackDocument& d : track.documents) {
    EXPECT_TRUE(names.insert(d.name).second) << "duplicate doc " << d.name;
  }
  for (const Topic& t : track.topics) {
    for (const std::string& r : t.relevant) {
      EXPECT_TRUE(names.count(r)) << "dangling qrel " << r;
    }
  }
}

TEST_F(TrackGeneratorTest, DocumentsAreValidFigure2Xml) {
  const Track& track = GetTrack();
  size_t checked = 0;
  for (const TrackDocument& d : track.documents) {
    auto meta = ParseImageMetadata(d.xml);
    ASSERT_TRUE(meta.ok()) << d.name << ": " << meta.status();
    EXPECT_NE(meta->FindSection("en"), nullptr);
    EXPECT_NE(meta->FindSection("de"), nullptr);  // foreign decoy section
    EXPECT_EQ(meta->license, "GFDL");
    EXPECT_FALSE(ExtractLinkedText(*meta).empty());
    if (++checked >= 50) break;  // enough coverage
  }
}

TEST_F(TrackGeneratorTest, RelevantDocsMentionPlantedTitles) {
  const Track& track = GetTrack();
  const auto& kb = Wiki().kb;
  const Topic& topic = track.topics[0];
  std::set<std::string> rel(topic.relevant.begin(), topic.relevant.end());
  size_t docs_with_planted = 0, rel_docs = 0;
  for (const TrackDocument& d : track.documents) {
    if (!rel.count(d.name)) continue;
    ++rel_docs;
    auto meta = ParseImageMetadata(d.xml);
    ASSERT_TRUE(meta.ok());
    std::string text = ExtractLinkedText(*meta);
    for (graph::NodeId a : topic.planted_good) {
      if (text.find(kb.display_title(a)) != std::string::npos) {
        ++docs_with_planted;
        break;
      }
    }
  }
  // The planting guarantees most relevant documents carry at least one
  // good expansion title (alias mentions may hide some).
  EXPECT_GT(docs_with_planted * 10, rel_docs * 6);
}

TEST_F(TrackGeneratorTest, DeterministicForSeed) {
  TrackGeneratorOptions options;
  options.num_topics = 3;
  options.background_docs = 10;
  auto a = GenerateTrack(Wiki(), options);
  auto b = GenerateTrack(Wiki(), options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->documents.size(), b->documents.size());
  for (size_t i = 0; i < a->documents.size(); ++i) {
    ASSERT_EQ(a->documents[i].xml, b->documents[i].xml);
  }
  for (size_t t = 0; t < a->topics.size(); ++t) {
    EXPECT_EQ(a->topics[t].keywords, b->topics[t].keywords);
  }
}

TEST_F(TrackGeneratorTest, RejectsBadOptions) {
  TrackGeneratorOptions options;
  options.num_topics = 0;
  EXPECT_TRUE(GenerateTrack(Wiki(), options).status().IsInvalidArgument());
}

}  // namespace
}  // namespace wqe::clef
