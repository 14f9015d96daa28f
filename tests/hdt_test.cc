#include <gtest/gtest.h>

#include <vector>

#include "hdt/hdt.h"

namespace mitra::hdt {
namespace {

Hdt BuildSample() {
  // root
  //   a[0] (leaf, "1")
  //   b[0]
  //     a[0] "2"
  //     a[1] "3"
  //   b[1]
  //     c[0] "4"
  HdtBuilder b;
  NodeId root = b.AddRoot("root");
  b.AddChild(root, "a", "1");
  NodeId b0 = b.AddChild(root, "b");
  b.AddChild(b0, "a", "2");
  b.AddChild(b0, "a", "3");
  NodeId b1 = b.AddChild(root, "b");
  b.AddChild(b1, "c", "4");
  return b.Finish();
}

std::vector<NodeId> ChildList(const Hdt& t, NodeId n) {
  return std::vector<NodeId>(t.Children(n).begin(), t.Children(n).end());
}

TEST(Hdt, PositionsAreComputedPerTag) {
  Hdt t = BuildSample();
  const std::vector<NodeId> kids = ChildList(t, t.root());
  ASSERT_EQ(kids.size(), 3u);
  EXPECT_EQ(t.NumChildren(t.root()), 3u);
  EXPECT_EQ(t.Pos(kids[0]), 0);  // a[0]
  EXPECT_EQ(t.Pos(kids[1]), 0);  // b[0]
  EXPECT_EQ(t.Pos(kids[2]), 1);  // b[1]
}

TEST(Hdt, ChildrenWithTag) {
  Hdt t = BuildSample();
  auto tag_b = t.LookupTag("b");
  ASSERT_TRUE(tag_b.has_value());
  EXPECT_EQ(t.ChildrenWithTag(t.root(), *tag_b).size(), 2u);
}

TEST(Hdt, ChildWithTagPos) {
  Hdt t = BuildSample();
  auto tag_b = t.LookupTag("b");
  NodeId b1 = t.ChildWithTagPos(t.root(), *tag_b, 1);
  ASSERT_NE(b1, kInvalidNode);
  EXPECT_EQ(t.Pos(b1), 1);
  EXPECT_EQ(t.ChildWithTagPos(t.root(), *tag_b, 5), kInvalidNode);
  EXPECT_EQ(t.ChildWithTagPos(t.root(), *tag_b, -1), kInvalidNode);
}

TEST(Hdt, DescendantsWithTagPreorder) {
  Hdt t = BuildSample();
  auto tag_a = t.LookupTag("a");
  auto out = t.DescendantsWithTag(t.root(), tag_a.value());
  ASSERT_EQ(out.size(), 3u);
  // Preorder: document order.
  EXPECT_EQ(t.Data(out[0]), "1");
  EXPECT_EQ(t.Data(out[1]), "2");
  EXPECT_EQ(t.Data(out[2]), "3");
}

TEST(Hdt, ParentAndDepth) {
  Hdt t = BuildSample();
  auto tag_c = t.LookupTag("c");
  auto out = t.DescendantsWithTag(t.root(), *tag_c);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(t.Depth(out[0]), 2);
  EXPECT_EQ(t.Parent(t.root()), kInvalidNode);
  EXPECT_EQ(t.NodeTagName(t.Parent(out[0])), "b");
}

TEST(Hdt, LeafAndData) {
  Hdt t = BuildSample();
  EXPECT_FALSE(t.IsLeaf(t.root()));
  EXPECT_FALSE(t.HasData(t.root()));
  EXPECT_EQ(t.Data(t.root()), "");
  auto tag_a = t.LookupTag("a");
  auto out = t.ChildrenWithTag(t.root(), *tag_a);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(t.IsLeaf(out[0]));
  EXPECT_TRUE(t.HasData(out[0]));
  EXPECT_EQ(t.Data(out[0]), "1");
}

TEST(Hdt, SetLeafData) {
  HdtBuilder b;
  NodeId root = b.AddRoot("r");
  NodeId x = b.AddChild(root, "x");
  b.SetLeafData(x, "v");
  Hdt t = b.Finish();
  EXPECT_TRUE(t.HasData(x));
  EXPECT_EQ(t.Data(x), "v");
  EXPECT_FALSE(t.HasData(root));
}

TEST(Hdt, AllTagsAndPairs) {
  Hdt t = BuildSample();
  EXPECT_EQ(t.AllTags().size(), 4u);  // root, a, b, c
  const auto& pairs = t.AllTagPosPairs();
  // First-seen node order: a@0, b@0, a@1, b@1, c@0 (a@0 appears under
  // two parents but is listed once).
  const std::vector<std::pair<TagId, int32_t>> want = {
      {*t.LookupTag("a"), 0}, {*t.LookupTag("b"), 0}, {*t.LookupTag("a"), 1},
      {*t.LookupTag("b"), 1}, {*t.LookupTag("c"), 0}};
  EXPECT_EQ(pairs, want);
}

TEST(Hdt, AllDataValuesDeduplicated) {
  HdtBuilder b;
  NodeId root = b.AddRoot("r");
  b.AddChild(root, "x", "v");
  b.AddChild(root, "x", "v");
  b.AddChild(root, "x", "w");
  Hdt t = b.Finish();
  EXPECT_EQ(t.AllDataValues(), (std::vector<std::string>{"v", "w"}));
  EXPECT_EQ(t.DictSize(), 2u);
  EXPECT_EQ(t.GetDataId(1), t.GetDataId(2));
}

TEST(Hdt, LookupMissingTag) {
  Hdt t = BuildSample();
  EXPECT_FALSE(t.LookupTag("nope").has_value());
}

TEST(Hdt, DebugStringShape) {
  HdtBuilder b;
  NodeId root = b.AddRoot("r");
  b.AddChild(root, "x", "v");
  std::string s = b.Finish().ToDebugString();
  EXPECT_EQ(s, "r[0]\n  x[0] = \"v\"\n");
}

TEST(Hdt, DictionaryNumbersAndLookup) {
  HdtBuilder b;
  NodeId root = b.AddRoot("r");
  b.AddChild(root, "x", "3.0");
  b.AddChild(root, "x", "abc");
  Hdt t = b.Finish();
  ASSERT_EQ(t.DictSize(), 2u);
  EXPECT_EQ(t.DictNumber(0), std::optional<double>(3.0));
  EXPECT_FALSE(t.DictNumber(1).has_value());
  EXPECT_EQ(t.LookupDataId("abc"), std::optional<DataId>(1));
  EXPECT_FALSE(t.LookupDataId("3").has_value());
}

TEST(Hdt, EmptyBuilderGivesEmptyTree) {
  HdtBuilder b;
  Hdt t = b.Finish();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.root(), kInvalidNode);
  EXPECT_EQ(t.DictSize(), 0u);
  EXPECT_TRUE(t.AllTagPosPairs().empty());
  EXPECT_FALSE(t.LookupTag("r").has_value());
}

TEST(HdtBuilder, OutOfOrderAppendsAreRenumberedToPreorder) {
  // Built breadth-first; the finished tree must be the preorder one.
  HdtBuilder b;
  NodeId r = b.AddRoot("r");
  NodeId a = b.AddChild(r, "a");
  NodeId c = b.AddChild(r, "c");
  b.AddChild(a, "x", "2");
  b.AddChild(c, "x", "1");
  b.AddChild(a, "y", "1");
  Hdt t = b.Finish();
  EXPECT_EQ(t.ToDebugString(),
            "r[0]\n  a[0]\n    x[0] = \"2\"\n    y[0] = \"1\"\n"
            "  c[0]\n    x[0] = \"1\"\n");
  EXPECT_EQ(t.SubtreeEnd(1), 4);
  EXPECT_EQ(t.Parent(5), 4);
  // The dictionary follows the final node order, not the append order.
  EXPECT_EQ(t.AllDataValues(), (std::vector<std::string>{"2", "1"}));
  auto x = t.LookupTag("x");
  ASSERT_TRUE(x.has_value());
  auto xs = t.DescendantsWithTag(t.root(), *x);
  EXPECT_EQ(std::vector<NodeId>(xs.begin(), xs.end()),
            (std::vector<NodeId>{2, 5}));
}

TEST(HdtBuilder, PreorderAppendsKeepBuilderIds) {
  HdtBuilder b;
  NodeId r = b.AddRoot("r");
  NodeId a = b.AddChild(r, "a");
  NodeId x = b.AddChild(a, "x", "1");
  NodeId y = b.AddChild(r, "b", "2");
  Hdt t = b.Finish();
  EXPECT_EQ(t.Parent(a), r);
  EXPECT_EQ(t.Parent(x), a);
  EXPECT_EQ(t.Data(x), "1");
  EXPECT_EQ(t.Parent(y), r);
  EXPECT_EQ(t.Data(y), "2");
  EXPECT_TRUE(b.Finish().empty()) << "Finish() leaves the builder empty";
}

TEST(HdtBuilder, OverwrittenLeafDataLeavesNoDictionaryEntry) {
  HdtBuilder b;
  NodeId r = b.AddRoot("r");
  NodeId x = b.AddChild(r, "x", "old");
  b.SetLeafData(x, "new");
  Hdt t = b.Finish();
  EXPECT_EQ(t.AllDataValues(), (std::vector<std::string>{"new"}));
  EXPECT_FALSE(t.LookupDataId("old").has_value());
}

TEST(HdtBuilder, ProvenanceFlagsSurviveRenumbering) {
  HdtBuilder b;
  NodeId r = b.AddRoot("r");
  NodeId e = b.AddChild(r, "e");
  b.AddChild(r, "f", "1");
  b.AddAttribute(e, "id", "7");
  b.AddTextRun(e, "t");
  Hdt t = b.Finish();
  ASSERT_EQ(t.ToDebugString(),
            "r[0]\n  e[0]\n    id[0] = \"7\"\n    text[0] = \"t\"\n"
            "  f[0] = \"1\"\n");
  EXPECT_FALSE(t.IsAttribute(1));
  EXPECT_TRUE(t.IsAttribute(2));
  EXPECT_FALSE(t.IsTextRun(2));
  EXPECT_TRUE(t.IsTextRun(3));
  EXPECT_FALSE(t.IsAttribute(4));
}

TEST(Hdt, CopiesShareTheTree) {
  Hdt t = BuildSample();
  Hdt copy = t;
  EXPECT_EQ(copy.ToDebugString(), t.ToDebugString());
  t = Hdt();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(copy.size(), 7u);
}

}  // namespace
}  // namespace mitra::hdt
