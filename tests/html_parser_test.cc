#include <gtest/gtest.h>

#include "core/synthesizer.h"
#include "html/html_parser.h"
#include "test_util.h"

namespace mitra::html {
namespace {

TEST(HtmlParser, BasicDocument) {
  auto r = ParseHtml(
      "<html><body><h1>Title</h1><p>Hello</p></body></html>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->NodeTagName(r->root()), "html");
  std::string dbg = r->ToDebugString();
  EXPECT_NE(dbg.find("h1[0] = \"Title\""), std::string::npos) << dbg;
  EXPECT_NE(dbg.find("p[0] = \"Hello\""), std::string::npos);
}

TEST(HtmlParser, CaseInsensitiveTags) {
  auto r = ParseHtml("<DIV><P>x</P></DIV>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NodeTagName(r->root()), "div");
}

TEST(HtmlParser, VoidElements) {
  auto r = ParseHtml("<p>line one<br>line two<img src=\"x.png\"></p>");
  ASSERT_TRUE(r.ok());
  const hdt::Hdt& t = *r;
  // br and img become childless nodes inside p; text runs survive.
  auto br = t.LookupTag("br");
  auto img = t.LookupTag("img");
  ASSERT_TRUE(br && img);
  std::string dbg = t.ToDebugString();
  EXPECT_NE(dbg.find("src[0] = \"x.png\""), std::string::npos) << dbg;
  EXPECT_NE(dbg.find("text[0] = \"line one\""), std::string::npos);
}

TEST(HtmlParser, ImplicitLiClosing) {
  auto r = ParseHtml("<ul><li>a<li>b<li>c</ul>");
  ASSERT_TRUE(r.ok());
  const hdt::Hdt& t = *r;
  auto li = t.LookupTag("li");
  ASSERT_TRUE(li.has_value());
  auto out = t.ChildrenWithTag(t.root(), *li);
  ASSERT_EQ(out.size(), 3u);  // siblings, not nested
  EXPECT_EQ(t.Data(out[2]), "c");
}

TEST(HtmlParser, ImplicitTableClosing) {
  auto r = ParseHtml(
      "<table><tr><td>1<td>2<tr><td>3<td>4</table>");
  ASSERT_TRUE(r.ok());
  const hdt::Hdt& t = *r;
  auto tr = t.LookupTag("tr");
  auto rows = t.ChildrenWithTag(t.root(), *tr);
  ASSERT_EQ(rows.size(), 2u);
  auto td = t.LookupTag("td");
  auto cells = t.ChildrenWithTag(rows[1], *td);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(t.Data(cells[0]), "3");
}

TEST(HtmlParser, UnquotedAndBooleanAttributes) {
  auto r = ParseHtml("<input type=checkbox checked>");
  ASSERT_TRUE(r.ok());
  std::string dbg = r->ToDebugString();
  EXPECT_NE(dbg.find("type[0] = \"checkbox\""), std::string::npos) << dbg;
  EXPECT_NE(dbg.find("checked[0] = \"\""), std::string::npos);
}

TEST(HtmlParser, StrayEndTagsIgnored) {
  auto r = ParseHtml("<div><span>x</span></p></div></div>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NodeTagName(r->root()), "div");
}

TEST(HtmlParser, UnclosedElementsClosedAtEof) {
  auto r = ParseHtml("<div><section><p>text");
  ASSERT_TRUE(r.ok());
  std::string dbg = r->ToDebugString();
  EXPECT_NE(dbg.find("p[0] = \"text\""), std::string::npos) << dbg;
}

TEST(HtmlParser, ScriptContentIsOpaque) {
  auto r = ParseHtml(
      "<html><script>if (a < b) { x = \"<div>\"; }</script><p>y</p></html>");
  ASSERT_TRUE(r.ok());
  const hdt::Hdt& t = *r;
  EXPECT_FALSE(t.LookupTag("div").has_value());  // not parsed as markup
  auto script = t.LookupTag("script");
  ASSERT_TRUE(script.has_value());
}

TEST(HtmlParser, EntitiesLenient) {
  auto r = ParseHtml("<p>a &lt; b &amp;&nbsp;&bogus; c</p>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Data(r->root()), "a < b &\xc2\xa0&bogus; c");
}

TEST(HtmlParser, FragmentsWrapped) {
  auto r = ParseHtml("<p>a</p><p>b</p>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NodeTagName(r->root()), "html");
  EXPECT_EQ(test::Kids(*r, r->root()).size(), 2u);
}

TEST(HtmlParser, EmptyInputIsError) {
  EXPECT_FALSE(ParseHtml("").ok());
  EXPECT_FALSE(ParseHtml("   ").ok());
}

TEST(HtmlParser, SynthesisOverScrapedTable) {
  // End-to-end: scrape an HTML table into a relation — FlashExtract's
  // home turf (§8), handled by the MITRA pipeline via this plug-in.
  auto tree = ParseHtml(R"(
<html><body>
  <table id="stocks">
    <tr><td>ACME</td><td>31.4</td></tr>
    <tr><td>BIT</td><td>12.9</td></tr>
    <tr><td>COG</td><td>77.0</td></tr>
  </table>
</body></html>)");
  ASSERT_TRUE(tree.ok());
  hdt::Table want = test::MakeTable(
      {{"ACME", "31.4"}, {"BIT", "12.9"}, {"COG", "77.0"}});
  auto result = core::LearnTransformation(*tree, want);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  test::ExpectProgramYields(*tree, result->program, want);
}

}  // namespace
}  // namespace mitra::html
