#include <gtest/gtest.h>

#include "dsl/ast.h"
#include "dsl/eval.h"
#include "test_util.h"

namespace mitra::dsl {
namespace {

using test::ParseXmlOrDie;

const char* kDoc = R"(
<r>
  <p id="1"><n>A</n><q><f fid="2"/></q></p>
  <p id="2"><n>B</n><q><f fid="1"/></q></p>
</r>
)";

ColumnExtractor Col(std::vector<ColStep> steps) {
  return ColumnExtractor{std::move(steps)};
}

TEST(EvalColumn, EmptyExtractorIsRoot) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  auto nodes = EvalColumn(t, Col({}));
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0], t.root());
}

TEST(EvalColumn, Children) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  auto nodes = EvalColumn(t, Col({{ColOp::kChildren, "p", 0}}));
  EXPECT_EQ(nodes.size(), 2u);
}

TEST(EvalColumn, PChildrenSelectsByPosition) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  auto nodes = EvalColumn(t, Col({{ColOp::kPChildren, "p", 1}}));
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(t.Pos(nodes[0]), 1);
}

TEST(EvalColumn, Descendants) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  auto nodes = EvalColumn(t, Col({{ColOp::kDescendants, "fid", 0}}));
  EXPECT_EQ(nodes.size(), 2u);
  auto none = EvalColumn(t, Col({{ColOp::kDescendants, "zzz", 0}}));
  EXPECT_TRUE(none.empty());
}

TEST(EvalColumn, ChainedSteps) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  auto nodes = EvalColumn(
      t, Col({{ColOp::kChildren, "p", 0}, {ColOp::kPChildren, "n", 0}}));
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(t.Data(nodes[0]), "A");
  EXPECT_EQ(t.Data(nodes[1]), "B");
}

TEST(EvalColumn, DescendantsDeduplicatesOverlap) {
  // r → a → a → a: descendants from {r, r/a} overlap; set semantics.
  hdt::Hdt t = ParseXmlOrDie("<a><a><a>x</a></a></a>");
  auto all_a = EvalColumn(t, Col({{ColOp::kDescendants, "a", 0}}));
  EXPECT_EQ(all_a.size(), 2u);  // proper descendants of root only
  auto two_hops = EvalColumn(
      t, Col({{ColOp::kDescendants, "a", 0}, {ColOp::kDescendants, "a", 0}}));
  EXPECT_EQ(two_hops.size(), 1u);  // only the innermost, deduplicated
}

TEST(EvalNodeExtractor, ParentChainAndChild) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  auto fids = EvalColumn(t, Col({{ColOp::kDescendants, "fid", 0}}));
  ASSERT_EQ(fids.size(), 2u);
  // parent(parent(parent(fid))) is the p element.
  NodeExtractor up3{{{NodeOp::kParent, "", 0},
                     {NodeOp::kParent, "", 0},
                     {NodeOp::kParent, "", 0}}};
  hdt::NodeId p = EvalNodeExtractor(t, BindNodeExtractor(t, up3), fids[0]);
  ASSERT_NE(p, hdt::kInvalidNode);
  EXPECT_EQ(t.NodeTagName(p), "p");
  // child(p, id, 0) is the id attribute node.
  NodeExtractor to_id{{{NodeOp::kChild, "id", 0}}};
  hdt::NodeId id = EvalNodeExtractor(t, BindNodeExtractor(t, to_id), p);
  ASSERT_NE(id, hdt::kInvalidNode);
  EXPECT_EQ(t.Data(id), "1");
}

TEST(EvalNodeExtractor, BottomOnMissing) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  NodeExtractor up{{{NodeOp::kParent, "", 0}}};
  EXPECT_EQ(EvalNodeExtractor(t, BindNodeExtractor(t, up), t.root()),
            hdt::kInvalidNode);
  NodeExtractor bad_child{{{NodeOp::kChild, "nope", 0}}};
  EXPECT_EQ(EvalNodeExtractor(t, BindNodeExtractor(t, bad_child), t.root()),
            hdt::kInvalidNode);
  // ⊥ propagates through subsequent steps.
  NodeExtractor chain{{{NodeOp::kParent, "", 0}, {NodeOp::kChild, "p", 0}}};
  EXPECT_EQ(EvalNodeExtractor(t, BindNodeExtractor(t, chain), t.root()),
            hdt::kInvalidNode);
}

TEST(EvalAtom, ConstComparisonNumericAware) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  auto ids = EvalColumn(t, Col({{ColOp::kDescendants, "id", 0}}));
  ASSERT_EQ(ids.size(), 2u);
  Atom a;
  a.lhs_col = 0;
  a.rhs_is_const = true;
  a.rhs_const = "2";
  a.op = CmpOp::kLt;
  EXPECT_TRUE(EvalAtom(t, BindAtom(t, a), {ids[0]}));   // 1 < 2
  EXPECT_FALSE(EvalAtom(t, BindAtom(t, a), {ids[1]}));  // 2 < 2
  a.op = CmpOp::kLe;
  EXPECT_TRUE(EvalAtom(t, BindAtom(t, a), {ids[1]}));
  a.op = CmpOp::kEq;
  EXPECT_TRUE(EvalAtom(t, BindAtom(t, a), {ids[1]}));
  a.op = CmpOp::kGe;
  EXPECT_TRUE(EvalAtom(t, BindAtom(t, a), {ids[1]}));
  a.op = CmpOp::kNe;
  EXPECT_TRUE(EvalAtom(t, BindAtom(t, a), {ids[0]}));
}

TEST(EvalAtom, ConstOnInternalNodeIsFalse) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  Atom a;
  a.lhs_col = 0;
  a.rhs_is_const = true;
  a.rhs_const = "x";
  a.op = CmpOp::kEq;
  // nil data never satisfies
  EXPECT_FALSE(EvalAtom(t, BindAtom(t, a), {t.root()}));
}

TEST(EvalAtom, NodeNodeLeafDataComparison) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  auto ids = EvalColumn(t, Col({{ColOp::kDescendants, "id", 0}}));
  auto fids = EvalColumn(t, Col({{ColOp::kDescendants, "fid", 0}}));
  Atom a;
  a.lhs_col = 0;
  a.rhs_is_const = false;
  a.rhs_col = 1;
  a.op = CmpOp::kEq;
  // id=1 vs fid=1 (under p#2).
  EXPECT_TRUE(EvalAtom(t, BindAtom(t, a), {ids[0], fids[1]}));
  EXPECT_FALSE(EvalAtom(t, BindAtom(t, a), {ids[0], fids[0]}));  // 1 vs 2
}

TEST(EvalAtom, NodeNodeIdentityForInternalNodes) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  auto ps = EvalColumn(t, Col({{ColOp::kChildren, "p", 0}}));
  Atom a;
  a.lhs_col = 0;
  a.rhs_is_const = false;
  a.rhs_col = 1;
  a.op = CmpOp::kEq;
  EXPECT_TRUE(EvalAtom(t, BindAtom(t, a), {ps[0], ps[0]}));
  EXPECT_FALSE(EvalAtom(t, BindAtom(t, a), {ps[0], ps[1]}));
  // Non-equality on internal nodes is false (Fig. 7).
  a.op = CmpOp::kLt;
  EXPECT_FALSE(EvalAtom(t, BindAtom(t, a), {ps[0], ps[1]}));
}

TEST(EvalAtom, MixedLeafInternalIsFalse) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  auto ps = EvalColumn(t, Col({{ColOp::kChildren, "p", 0}}));
  auto ids = EvalColumn(t, Col({{ColOp::kDescendants, "id", 0}}));
  Atom a;
  a.lhs_col = 0;
  a.rhs_is_const = false;
  a.rhs_col = 1;
  a.op = CmpOp::kEq;
  EXPECT_FALSE(EvalAtom(t, BindAtom(t, a), {ps[0], ids[0]}));
}

TEST(EvalDnf, ClausesAndNegation) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  auto ids = EvalColumn(t, Col({{ColOp::kDescendants, "id", 0}}));
  Atom is_one;
  is_one.lhs_col = 0;
  is_one.rhs_is_const = true;
  is_one.rhs_const = "1";
  is_one.op = CmpOp::kEq;
  std::vector<Atom> atoms{is_one};

  Dnf id_is_1{{{Literal{0, false}}}};
  Dnf id_not_1{{{Literal{0, true}}}};
  EXPECT_TRUE(EvalDnf(t, id_is_1, BindAtoms(t, atoms), {ids[0]}));
  EXPECT_FALSE(EvalDnf(t, id_is_1, BindAtoms(t, atoms), {ids[1]}));
  EXPECT_TRUE(EvalDnf(t, id_not_1, BindAtoms(t, atoms), {ids[1]}));
  EXPECT_TRUE(EvalDnf(t, Dnf::True(), BindAtoms(t, atoms), {ids[0]}));
  EXPECT_FALSE(EvalDnf(t, Dnf::False(), BindAtoms(t, atoms), {ids[0]}));
}

TEST(EvalProgram, CrossProductAndFilter) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  Program p;
  p.columns = {Col({{ColOp::kChildren, "p", 0}, {ColOp::kPChildren, "n", 0}}),
               Col({{ColOp::kDescendants, "fid", 0}})};
  Atom join;  // n's person id == fid
  join.lhs_col = 0;
  join.lhs_path = NodeExtractor{
      {{NodeOp::kParent, "", 0}, {NodeOp::kChild, "id", 0}}};
  join.rhs_is_const = false;
  join.rhs_col = 1;
  join.op = CmpOp::kEq;
  p.atoms = {join};
  p.formula = Dnf{{{Literal{0, false}}}};

  auto result = EvalProgram(t, p);
  ASSERT_TRUE(result.ok());
  // (A, fid=1 under p2) and (B, fid=2 under p1).
  hdt::Table want = test::MakeTable({{"A", "1"}, {"B", "2"}});
  EXPECT_TRUE(result->BagEquals(want)) << result->ToString();
}

TEST(EvalProgram, TrueFormulaIsFullCrossProduct) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  Program p;
  p.columns = {Col({{ColOp::kChildren, "p", 0}, {ColOp::kPChildren, "n", 0}}),
               Col({{ColOp::kDescendants, "fid", 0}})};
  auto result = EvalProgram(t, p);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumRows(), 4u);  // 2 × 2
}

TEST(EvalProgram, ResourceCapOnHugeCrossProduct) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  Program p;
  ColumnExtractor every{{{ColOp::kDescendants, "fid", 0}}};
  for (int i = 0; i < 4; ++i) p.columns.push_back(every);
  EvalOptions opts;
  opts.max_intermediate_tuples = 8;  // 2^4 = 16 > 8
  auto result = EvalProgram(t, p, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(AstPrinting, PaperLikeSyntax) {
  ColumnExtractor pi = Col(
      {{ColOp::kChildren, "Person", 0}, {ColOp::kPChildren, "name", 0}});
  EXPECT_EQ(ToString(pi), "pchildren(children(s, Person), name, 0)");
  NodeExtractor phi{{{NodeOp::kParent, "", 0}, {NodeOp::kChild, "id", 0}}};
  EXPECT_EQ(ToString(phi), "child(parent(n), id, 0)");
}

TEST(Cost, LexicographicOrdering) {
  Cost a{1, 5, 0}, b{2, 1, 0}, c{1, 5, 3};
  EXPECT_LT(a, b);  // fewer atoms dominates
  EXPECT_LT(a, c);  // then detail
  EXPECT_LT(a, Cost::Max());
}

TEST(CmpOpHelpers, SwapAndNegate) {
  EXPECT_EQ(SwapCmpOp(CmpOp::kLt), CmpOp::kGt);
  EXPECT_EQ(SwapCmpOp(CmpOp::kEq), CmpOp::kEq);
  EXPECT_EQ(NegateCmpOp(CmpOp::kLt), CmpOp::kGe);
  EXPECT_EQ(NegateCmpOp(CmpOp::kEq), CmpOp::kNe);
}

}  // namespace
}  // namespace mitra::dsl
