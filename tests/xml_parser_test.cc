#include <gtest/gtest.h>

#include "xml/xml_parser.h"
#include "xml/xml_writer.h"
#include "test_util.h"

namespace mitra::xml {
namespace {

TEST(XmlParser, SimpleElementWithText) {
  auto r = ParseXml("<name>Alice</name>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const hdt::Hdt& t = *r;
  EXPECT_EQ(t.NodeTagName(t.root()), "name");
  // Pure text content is stored as the element's own data (Fig. 4a).
  EXPECT_TRUE(t.HasData(t.root()));
  EXPECT_EQ(t.Data(t.root()), "Alice");
}

TEST(XmlParser, AttributesBecomeLeafChildren) {
  auto r = ParseXml(R"(<Friend fid="2" years="3"/>)");
  ASSERT_TRUE(r.ok());
  const hdt::Hdt& t = *r;
  const auto& kids = test::Kids(t, t.root());
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(t.NodeTagName(kids[0]), "fid");
  EXPECT_EQ(t.Data(kids[0]), "2");
  EXPECT_EQ(t.NodeTagName(kids[1]), "years");
  EXPECT_EQ(t.Data(kids[1]), "3");
}

TEST(XmlParser, MixedContentTextChildren) {
  auto r = ParseXml(R"(<object id="1">A<object id="2">B</object></object>)");
  ASSERT_TRUE(r.ok());
  const hdt::Hdt& t = *r;
  // Children: id attr, text "A", nested object.
  const auto& kids = test::Kids(t, t.root());
  ASSERT_EQ(kids.size(), 3u);
  EXPECT_EQ(t.NodeTagName(kids[0]), "id");
  EXPECT_EQ(t.NodeTagName(kids[1]), "text");
  EXPECT_EQ(t.Data(kids[1]), "A");
  EXPECT_EQ(t.NodeTagName(kids[2]), "object");
}

TEST(XmlParser, SiblingPositions) {
  auto r = ParseXml("<r><x>1</x><y>a</y><x>2</x></r>");
  ASSERT_TRUE(r.ok());
  const hdt::Hdt& t = *r;
  const auto& kids = test::Kids(t, t.root());
  EXPECT_EQ(t.Pos(kids[0]), 0);  // x[0]
  EXPECT_EQ(t.Pos(kids[1]), 0);  // y[0]
  EXPECT_EQ(t.Pos(kids[2]), 1);  // x[1]
}

TEST(XmlParser, EntitiesDecoded) {
  auto r = ParseXml("<a>x &lt; y &amp;&amp; z &gt; w &#65;&#x42;</a>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Data(r->root()), "x < y && z > w AB");
}

TEST(XmlParser, EntityInAttribute) {
  auto r = ParseXml(R"(<a v="&quot;q&quot; &apos;s&apos;"/>)");
  ASSERT_TRUE(r.ok());
  const auto& kids = test::Kids(*r, r->root());
  EXPECT_EQ(r->Data(kids[0]), "\"q\" 's'");
}

TEST(XmlParser, CdataPreserved) {
  auto r = ParseXml("<a><![CDATA[<not> & markup]]></a>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Data(r->root()), "<not> & markup");
}

TEST(XmlParser, CommentsAndPiSkipped) {
  auto r = ParseXml(
      "<?xml version=\"1.0\"?><!-- c --><r><!-- inner --><a>1</a><?pi "
      "data?></r>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(test::Kids(*r, r->root()).size(), 1u);
}

TEST(XmlParser, DoctypeSkipped) {
  auto r = ParseXml("<!DOCTYPE r [<!ELEMENT r ANY>]><r><a>1</a></r>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NodeTagName(r->root()), "r");
}

TEST(XmlParser, SelfClosingEmptyElement) {
  auto r = ParseXml("<r><empty/></r>");
  ASSERT_TRUE(r.ok());
  const auto& kids = test::Kids(*r, r->root());
  ASSERT_EQ(kids.size(), 1u);
  EXPECT_TRUE(r->IsLeaf(kids[0]));
  EXPECT_FALSE(r->HasData(kids[0]));
}

TEST(XmlParser, WhitespaceOnlyTextIgnored) {
  auto r = ParseXml("<r>\n  <a>1</a>\n  <b>2</b>\n</r>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(test::Kids(*r, r->root()).size(), 2u);
}

// --- error cases ---------------------------------------------------------

TEST(XmlParser, MismatchedTagIsError) {
  auto r = ParseXml("<a><b></a></b>");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(XmlParser, UnterminatedElementIsError) {
  EXPECT_FALSE(ParseXml("<a><b>").ok());
}

TEST(XmlParser, TrailingContentIsError) {
  EXPECT_FALSE(ParseXml("<a/>garbage").ok());
}

TEST(XmlParser, EmptyDocumentIsError) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("   \n ").ok());
}

TEST(XmlParser, BadAttributeIsError) {
  EXPECT_FALSE(ParseXml("<a v=unquoted/>").ok());
  EXPECT_FALSE(ParseXml("<a v></a>").ok());
  EXPECT_FALSE(ParseXml("<a b=").ok());  // input ends where the value starts
}

TEST(XmlParser, UnknownEntityIsError) {
  EXPECT_FALSE(ParseXml("<a>&unknown;</a>").ok());
}

TEST(XmlParser, ErrorsCarryLineAndColumn) {
  auto r = ParseXml("<a>\n<b></c>\n</a>");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("2:"), std::string::npos)
      << r.status().message();
}

// --- writer round-trip ----------------------------------------------------

void ExpectTreesEqual(const hdt::Hdt& a, const hdt::Hdt& b) {
  EXPECT_EQ(a.ToDebugString(), b.ToDebugString());
}

TEST(XmlWriter, RoundTripsHdt) {
  const char* docs[] = {
      "<name>Alice</name>",
      "<r><x>1</x><y>a</y><x>2</x></r>",
      R"(<object id="1">A<object id="2">B</object></object>)",
      "<r><empty/></r>",
  };
  for (const char* doc : docs) {
    auto first = ParseXml(doc);
    ASSERT_TRUE(first.ok()) << doc;
    std::string emitted = *WriteXml(*first);
    auto second = ParseXml(emitted);
    ASSERT_TRUE(second.ok()) << emitted;
    ExpectTreesEqual(*first, *second);
  }
}

TEST(XmlWriter, EscapesSpecialCharacters) {
  hdt::HdtBuilder b;
  auto root = b.AddRoot("r");
  b.AddChild(root, "a", "x < y & z");
  const hdt::Hdt t = b.Finish();
  std::string emitted = *WriteXml(t);
  EXPECT_NE(emitted.find("x &lt; y &amp; z"), std::string::npos);
  auto back = ParseXml(emitted);
  ASSERT_TRUE(back.ok());
  ExpectTreesEqual(t, *back);
}

}  // namespace
}  // namespace mitra::xml
