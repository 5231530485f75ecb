/// \file xml_test.cc
/// \brief Tests for the XML pull parser and writer.

#include <gtest/gtest.h>

#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace wqe::xml {
namespace {

std::vector<Event> Drain(std::string_view doc) {
  PullParser p(doc);
  std::vector<Event> events;
  for (;;) {
    auto ev = p.Next();
    EXPECT_TRUE(ev.ok()) << ev.status();
    if (!ev.ok() || ev->type == EventType::kEndDocument) break;
    events.push_back(*ev);
  }
  return events;
}

TEST(PullParserTest, SimpleElementWithText) {
  auto events = Drain("<a>hello</a>");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, EventType::kStartElement);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].type, EventType::kCharacters);
  EXPECT_EQ(events[1].text, "hello");
  EXPECT_EQ(events[2].type, EventType::kEndElement);
}

TEST(PullParserTest, NestedElements) {
  auto events = Drain("<a><b><c/></b></a>");
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[2].name, "c");
  EXPECT_TRUE(events[2].self_closing);
  EXPECT_EQ(events[3].type, EventType::kEndElement);
  EXPECT_EQ(events[3].name, "c");
}

TEST(PullParserTest, AttributesWithBothQuoteStyles) {
  auto events = Drain(R"(<img id="82531" file='images/9.jpg' />)");
  ASSERT_GE(events.size(), 1u);
  EXPECT_EQ(events[0].Attr("id"), "82531");
  EXPECT_EQ(events[0].Attr("file"), "images/9.jpg");
  EXPECT_TRUE(events[0].HasAttr("id"));
  EXPECT_FALSE(events[0].HasAttr("nope"));
  EXPECT_EQ(events[0].Attr("nope"), "");
}

TEST(PullParserTest, EntityDecoding) {
  auto events = Drain("<a>&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos;</a>");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].text, "<x> & \"y\" 'z'");
}

TEST(PullParserTest, NumericCharacterReferences) {
  auto events = Drain("<a>&#65;&#x42;&#233;</a>");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].text, "AB\xC3\xA9");  // é in UTF-8
}

// A numeric reference must name an XML 1.0 Char: #x9 | #xA | #xD |
// [#x20-#xD7FF] | [#xE000-#xFFFD] | [#x10000-#x10FFFF].
TEST(DecodeXmlEntitiesTest, CharBoundariesDecode) {
  auto decoded =
      DecodeXmlEntities("&#x9;&#xD7FF;&#xE000;&#xFFFD;&#x10000;&#x10FFFF;");
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded,
            "\t\xED\x9F\xBF\xEE\x80\x80\xEF\xBF\xBD\xF0\x90\x80\x80"
            "\xF4\x8F\xBF\xBF");
}

TEST(DecodeXmlEntitiesTest, OverflowingReferenceRejected) {
  // 0x100000041 and 4294967361 are 2^32 + 'A': they must not wrap to "A".
  for (const char* raw : {"&#x100000041;", "&#4294967361;"}) {
    auto decoded = DecodeXmlEntities(raw);
    EXPECT_TRUE(decoded.status().IsParseError())
        << raw << " decoded to '" << (decoded.ok() ? *decoded : "") << "'";
  }
}

TEST(DecodeXmlEntitiesTest, SurrogateReferenceRejected) {
  // A surrogate would be written as invalid UTF-8 (ED A0 80).
  for (const char* raw : {"&#xD800;", "&#xDFFF;", "&#55296;"}) {
    EXPECT_TRUE(DecodeXmlEntities(raw).status().IsParseError()) << raw;
  }
}

TEST(DecodeXmlEntitiesTest, NonCharReferenceRejected) {
  for (const char* raw :
       {"&#1;", "&#x1F;", "&#xFFFE;", "&#xFFFF;", "&#x110000;", "&#0;"}) {
    EXPECT_TRUE(DecodeXmlEntities(raw).status().IsParseError()) << raw;
  }
}

TEST(PullParserTest, CommentsAndPIsSkipped) {
  auto events =
      Drain("<?xml version=\"1.0\"?><!-- hi --><a><!-- inner -->x</a>");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].text, "x");
}

TEST(PullParserTest, CdataReturnedAsCharacters) {
  auto events = Drain("<a><![CDATA[<raw> & stuff]]></a>");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].text, "<raw> & stuff");
}

TEST(PullParserTest, AttributeEntityDecoding) {
  auto events = Drain(R"(<a t="a&amp;b"/>)");
  EXPECT_EQ(events[0].Attr("t"), "a&b");
}

// Malformed-input table.
struct BadXmlCase {
  const char* doc;
  const char* why;
};

class PullParserErrorTest : public ::testing::TestWithParam<BadXmlCase> {};

TEST_P(PullParserErrorTest, ReportsParseError) {
  PullParser p(GetParam().doc);
  Status error = Status::OK();
  for (int i = 0; i < 100; ++i) {
    auto ev = p.Next();
    if (!ev.ok()) {
      error = ev.status();
      break;
    }
    if (ev->type == EventType::kEndDocument) break;
  }
  EXPECT_TRUE(error.IsParseError())
      << GetParam().why << " — got: " << error;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, PullParserErrorTest,
    ::testing::Values(
        BadXmlCase{"<a>", "unclosed element"},
        BadXmlCase{"<a></b>", "mismatched end tag"},
        BadXmlCase{"</a>", "end tag with no open element"},
        BadXmlCase{"<a attr>x</a>", "attribute without value"},
        BadXmlCase{"<a attr=x>y</a>", "unquoted attribute"},
        BadXmlCase{"<a t=\"v>x</a>", "unterminated attribute"},
        BadXmlCase{"<a>&unknown;</a>", "unknown entity"},
        BadXmlCase{"<a>&#xZZ;</a>", "bad numeric reference"},
        BadXmlCase{"<a><![CDATA[x</a>", "unterminated CDATA"},
        BadXmlCase{"<!-- forever <a>x</a>", "unterminated comment"},
        BadXmlCase{"x<a></a>", "text outside root"},
        BadXmlCase{"<1a></1a>", "bad element name"}));

TEST(PullParserTest, SkipElementSkipsSubtree) {
  PullParser p("<root><skip><deep>x</deep></skip><keep>y</keep></root>");
  ASSERT_TRUE(p.Next().ok());   // <root>
  auto skip_start = p.Next();   // <skip>
  ASSERT_TRUE(skip_start.ok());
  EXPECT_EQ(skip_start->name, "skip");
  ASSERT_TRUE(p.SkipElement().ok());
  auto keep = p.Next();
  ASSERT_TRUE(keep.ok());
  EXPECT_EQ(keep->name, "keep");
}

TEST(PullParserTest, ReadElementTextConcatenatesChildren) {
  PullParser p("<a>one <b>two</b> three</a>");
  ASSERT_TRUE(p.Next().ok());
  auto text = p.ReadElementText();
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "one two three");
}

TEST(EscapeXmlTest, EscapesAllFive) {
  EXPECT_EQ(EscapeXml("<a & \"b\" 'c'>"),
            "&lt;a &amp; &quot;b&quot; &apos;c&apos;&gt;");
}

TEST(XmlWriterTest, BuildsDocument) {
  XmlWriter w(2);
  w.WriteDeclaration();
  w.StartElement("image");
  w.WriteAttribute("id", "7");
  w.WriteElement("name", "x.jpg");
  w.WriteEmptyElement("comment");
  w.EndElement();
  std::string doc = w.TakeString();
  EXPECT_NE(doc.find("<?xml"), std::string::npos);
  EXPECT_NE(doc.find("<image id=\"7\">"), std::string::npos);
  EXPECT_NE(doc.find("<name>x.jpg</name>"), std::string::npos);
  EXPECT_NE(doc.find("<comment />"), std::string::npos);
}

TEST(XmlWriterTest, EscapesTextAndAttributes) {
  XmlWriter w(0);
  w.StartElement("a");
  w.WriteAttribute("t", "x<y&");
  w.WriteText("a<b>&c");
  w.EndElement();
  std::string doc = w.TakeString();
  EXPECT_NE(doc.find("t=\"x&lt;y&amp;\""), std::string::npos);
  EXPECT_NE(doc.find("a&lt;b&gt;&amp;c"), std::string::npos);
}

// Round-trip property: writer output parses back to the same structure.
class XmlRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(XmlRoundTripTest, WriteParsePreservesText) {
  std::string payload = GetParam();
  XmlWriter w(2);
  w.WriteDeclaration();
  w.StartElement("doc");
  w.WriteAttribute("attr", payload);
  w.WriteElement("field", payload);
  w.EndElement();
  std::string xml_doc = w.TakeString();

  PullParser p(xml_doc);
  auto root = p.Next();
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->Attr("attr"), payload);
  // Skip indentation whitespace emitted between elements.
  Event field;
  for (;;) {
    auto ev = p.Next();
    ASSERT_TRUE(ev.ok());
    ASSERT_NE(ev->type, EventType::kEndDocument);
    if (ev->type == EventType::kStartElement) {
      field = *ev;
      break;
    }
  }
  ASSERT_EQ(field.name, "field");
  auto text = p.ReadElementText();
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, payload);
}

INSTANTIATE_TEST_SUITE_P(
    Payloads, XmlRoundTripTest,
    ::testing::Values("plain", "with <angle> & ampersand",
                      "quotes \" and ' here", "unicode blühendes Ω",
                      "({{Information |Description= x |Source= y}})",
                      "a\nmultiline\nvalue"));

}  // namespace
}  // namespace wqe::xml
