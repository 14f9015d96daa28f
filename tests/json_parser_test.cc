#include <gtest/gtest.h>

#include "json/json_parser.h"
#include "json/json_writer.h"
#include "test_util.h"

namespace mitra::json {
namespace {

TEST(JsonParser, FlatObject) {
  auto r = ParseJson(R"({"id": 1, "name": "Alice"})");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const hdt::Hdt& t = *r;
  EXPECT_EQ(t.NodeTagName(t.root()), "root");
  const auto& kids = test::Kids(t, t.root());
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(t.NodeTagName(kids[0]), "id");
  EXPECT_EQ(t.Data(kids[0]), "1");
  EXPECT_EQ(t.NodeTagName(kids[1]), "name");
  EXPECT_EQ(t.Data(kids[1]), "Alice");
}

TEST(JsonParser, ArrayBecomesPositionedSiblings) {
  // Example 2 of the paper: k: [18, 45, 32] → (k,0,18),(k,1,45),(k,2,32).
  auto r = ParseJson(R"({"k": [18, 45, 32]})");
  ASSERT_TRUE(r.ok());
  const hdt::Hdt& t = *r;
  const auto& kids = test::Kids(t, t.root());
  ASSERT_EQ(kids.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(t.NodeTagName(kids[static_cast<size_t>(i)]), "k");
    EXPECT_EQ(t.Pos(kids[static_cast<size_t>(i)]), i);
  }
  EXPECT_EQ(t.Data(kids[1]), "45");
}

TEST(JsonParser, NestedObjects) {
  auto r = ParseJson(R"({"a": {"b": {"c": "deep"}}})");
  ASSERT_TRUE(r.ok());
  const hdt::Hdt& t = *r;
  auto a = test::Kids(t, t.root())[0];
  auto b = test::Kids(t, a)[0];
  auto c = test::Kids(t, b)[0];
  EXPECT_EQ(t.NodeTagName(c), "c");
  EXPECT_EQ(t.Data(c), "deep");
  EXPECT_FALSE(t.HasData(a));  // internal nodes carry nil data
}

TEST(JsonParser, LiteralsAndNumbers) {
  auto r = ParseJson(
      R"({"t": true, "f": false, "n": null, "x": -1.5e3, "z": 0})");
  ASSERT_TRUE(r.ok());
  const hdt::Hdt& t = *r;
  const auto& kids = test::Kids(t, t.root());
  EXPECT_EQ(t.Data(kids[0]), "true");
  EXPECT_EQ(t.Data(kids[1]), "false");
  EXPECT_EQ(t.Data(kids[2]), "null");
  EXPECT_EQ(t.Data(kids[3]), "-1.5e3");  // source lexeme preserved
  EXPECT_EQ(t.Data(kids[4]), "0");
}

TEST(JsonParser, StringEscapes) {
  auto r = ParseJson(R"({"s": "a\"b\\c\nd\tAé"})");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Data(test::Kids(*r, r->root())[0]),
            "a\"b\\c\nd\tA\xc3\xa9");
}

TEST(JsonParser, SurrogatePair) {
  auto r = ParseJson(R"({"s": "😀"})");  // 😀 U+1F600
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Data(test::Kids(*r, r->root())[0]), "\xf0\x9f\x98\x80");
}

TEST(JsonParser, TopLevelArrayUsesItemTag) {
  auto r = ParseJson(R"([{"a": 1}, {"a": 2}])");
  ASSERT_TRUE(r.ok());
  const hdt::Hdt& t = *r;
  const auto& kids = test::Kids(t, t.root());
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(t.NodeTagName(kids[0]), "item");
  EXPECT_EQ(t.Pos(kids[1]), 1);
}

TEST(JsonParser, NestedArrayReusesKey) {
  auto r = ParseJson(R"({"m": [[1, 2], [3]]})");
  ASSERT_TRUE(r.ok());
  const hdt::Hdt& t = *r;
  const auto& rows = test::Kids(t, t.root());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(t.NodeTagName(rows[0]), "m");
  const auto& inner = test::Kids(t, rows[0]);
  ASSERT_EQ(inner.size(), 2u);
  EXPECT_EQ(t.NodeTagName(inner[0]), "m");
  EXPECT_EQ(t.Data(inner[1]), "2");
}

TEST(JsonParser, EmptyContainers) {
  auto r = ParseJson(R"({"a": {}, "b": []})");
  ASSERT_TRUE(r.ok());
  const hdt::Hdt& t = *r;
  const auto& kids = test::Kids(t, t.root());
  // {} yields an internal childless node; [] yields no nodes at all.
  ASSERT_EQ(kids.size(), 1u);
  EXPECT_EQ(t.NodeTagName(kids[0]), "a");
  EXPECT_TRUE(t.IsLeaf(kids[0]));
  EXPECT_FALSE(t.HasData(kids[0]));
}

TEST(JsonParser, TopLevelPrimitive) {
  auto r = ParseJson("42");
  ASSERT_TRUE(r.ok());
  const auto& kids = test::Kids(*r, r->root());
  ASSERT_EQ(kids.size(), 1u);
  EXPECT_EQ(r->NodeTagName(kids[0]), "value");
  EXPECT_EQ(r->Data(kids[0]), "42");
}

// --- error cases ----------------------------------------------------------

TEST(JsonParser, Malformed) {
  const char* bad[] = {
      "",           "{",         "{\"a\":}",   "{\"a\" 1}",
      "[1, 2",      "[1 2]",     "{\"a\":1,}", "tru",
      "01",         "1.",        "1e",         "\"unterminated",
      "{\"a\":1} x", "{'a':1}",  "\"bad\\q\"", "\"\\ud800\"",
  };
  for (const char* doc : bad) {
    EXPECT_FALSE(ParseJson(doc).ok()) << "should reject: " << doc;
  }
}

TEST(JsonParser, ErrorsCarryLineAndColumn) {
  auto r = ParseJson("{\n  \"a\": ?\n}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("2:"), std::string::npos);
}

// --- writer round-trip ----------------------------------------------------

TEST(JsonWriter, RoundTripsHdt) {
  const char* docs[] = {
      R"({"id": 1, "name": "Alice"})",
      R"({"k": [18, 45, 32]})",
      R"({"a": {"b": {"c": "deep"}}})",
      R"({"t": true, "f": false, "n": null})",
      R"({"Person": [{"id": 1}, {"id": 2}]})",
      R"({"s": "quote \" and \\ backslash"})",
  };
  for (const char* doc : docs) {
    auto first = ParseJson(doc);
    ASSERT_TRUE(first.ok()) << doc;
    std::string emitted = *WriteJson(*first);
    auto second = ParseJson(emitted);
    ASSERT_TRUE(second.ok()) << emitted;
    EXPECT_EQ(first->ToDebugString(), second->ToDebugString()) << emitted;
  }
}

}  // namespace
}  // namespace mitra::json
