#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/thread_pool.h"
#include "core/executor.h"
#include "dsl/eval.h"
#include "dsl/reference_eval.h"
#include "test_util.h"
#include "testing/oracles.h"

namespace mitra::core {
namespace {

using dsl::Atom;
using dsl::CmpOp;
using dsl::ColOp;
using dsl::ColumnExtractor;
using dsl::Dnf;
using dsl::Literal;
using dsl::NodeOp;
using dsl::Program;

using test::ParseXmlOrDie;

const char* kDoc = R"(
<r>
  <p id="1"><n>A</n><f fid="2" w="3"/></p>
  <p id="2"><n>B</n><f fid="1" w="3"/><f fid="3" w="9"/></p>
  <p id="3"><n>C</n><f fid="2" w="9"/></p>
</r>
)";

void ExpectAgreesWithNaive(const hdt::Hdt& tree, const Program& p) {
  auto naive = dsl::EvalProgram(tree, p);
  auto fast = ExecuteOptimized(tree, p);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  hdt::Table a = std::move(naive).value(), b = std::move(fast).value();
  a.Dedup();
  a.SortRows();
  b.Dedup();
  b.SortRows();
  EXPECT_EQ(a.rows(), b.rows())
      << dsl::ToString(p) << "\nnaive:\n"
      << a.ToString() << "optimized:\n"
      << b.ToString();
}

ColumnExtractor Names() {
  return ColumnExtractor{
      {{ColOp::kChildren, "p", 0}, {ColOp::kPChildren, "n", 0}}};
}
ColumnExtractor Fids() {
  return ColumnExtractor{{{ColOp::kDescendants, "fid", 0}}};
}

Atom JoinIdFid() {
  Atom a;
  a.lhs_col = 0;
  a.lhs_path = dsl::NodeExtractor{
      {{NodeOp::kParent, "", 0}, {NodeOp::kChild, "id", 0}}};
  a.op = CmpOp::kEq;
  a.rhs_is_const = false;
  a.rhs_col = 1;
  return a;
}

TEST(OptimizedExecutor, HashJoinEquality) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  Program p;
  p.columns = {Names(), Fids()};
  p.atoms = {JoinIdFid()};
  p.formula = Dnf{{{Literal{0, false}}}};
  ExpectAgreesWithNaive(t, p);
  // The plan must actually contain a hash join.
  OptimizedExecutor exec(p);
  EXPECT_NE(exec.DescribePlan().find("hash-join"), std::string::npos);
}

TEST(OptimizedExecutor, NegatedLiteralNotJoined) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  Program p;
  p.columns = {Names(), Fids()};
  p.atoms = {JoinIdFid()};
  p.formula = Dnf{{{Literal{0, true}}}};
  ExpectAgreesWithNaive(t, p);
  OptimizedExecutor exec(p);
  EXPECT_EQ(exec.DescribePlan().find("hash-join"), std::string::npos);
}

TEST(OptimizedExecutor, TrueAndFalseFormulas) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  Program p;
  p.columns = {Names(), Fids()};
  p.formula = Dnf::True();
  ExpectAgreesWithNaive(t, p);
  p.formula = Dnf::False();
  ExpectAgreesWithNaive(t, p);
}

TEST(OptimizedExecutor, MultiClauseDnfDeduplicates) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  Program p;
  p.columns = {Names(), Fids()};
  Atom fid_is_2;
  fid_is_2.lhs_col = 1;
  fid_is_2.rhs_is_const = true;
  fid_is_2.rhs_const = "2";
  fid_is_2.op = CmpOp::kEq;
  p.atoms = {JoinIdFid(), fid_is_2};
  // Overlapping clauses: tuples satisfying both must appear once.
  p.formula = Dnf{{{Literal{0, false}}, {Literal{1, false}}}};
  ExpectAgreesWithNaive(t, p);
}

TEST(OptimizedExecutor, UnaryConstFilters) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  Program p;
  p.columns = {Fids()};
  Atom lt;
  lt.lhs_col = 0;
  lt.rhs_is_const = true;
  lt.rhs_const = "3";
  lt.op = CmpOp::kLt;
  p.atoms = {lt};
  p.formula = Dnf{{{Literal{0, false}}}};
  ExpectAgreesWithNaive(t, p);
}

TEST(OptimizedExecutor, MemoizesIdenticalColumns) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  Program p;
  p.columns = {Fids(), Fids(), Fids()};
  p.formula = Dnf::True();
  ExpectAgreesWithNaive(t, p);
}

TEST(OptimizedExecutor, NumericKeyCanonicalization) {
  // "03" and "3" are numerically equal — the hash join must agree with
  // CompareData's numeric-aware equality.
  hdt::Hdt t = ParseXmlOrDie(R"(
<r>
  <a><k>03</k></a>
  <b><k>3</k></b>
</r>
)");
  Program p;
  ColumnExtractor ak{{{ColOp::kChildren, "a", 0}, {ColOp::kChildren, "k", 0}}};
  ColumnExtractor bk{{{ColOp::kChildren, "b", 0}, {ColOp::kChildren, "k", 0}}};
  p.columns = {ak, bk};
  Atom eq;
  eq.lhs_col = 0;
  eq.op = CmpOp::kEq;
  eq.rhs_is_const = false;
  eq.rhs_col = 1;
  p.atoms = {eq};
  p.formula = Dnf{{{Literal{0, false}}}};
  auto fast = ExecuteOptimized(t, p);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->NumRows(), 1u);
  ExpectAgreesWithNaive(t, p);
}

TEST(OptimizedExecutor, IdentityJoinOnInternalNodes) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  Program p;
  ColumnExtractor ps{{{ColOp::kChildren, "p", 0}}};
  p.columns = {ps, Names()};
  Atom same_p;  // t[0] = parent(t[1])
  same_p.lhs_col = 0;
  same_p.op = CmpOp::kEq;
  same_p.rhs_is_const = false;
  same_p.rhs_col = 1;
  same_p.rhs_path = dsl::NodeExtractor{{{NodeOp::kParent, "", 0}}};
  p.atoms = {same_p};
  p.formula = Dnf{{{Literal{0, false}}}};
  auto fast = ExecuteOptimized(t, p);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->NumRows(), 3u);  // each name with its own p
  ExpectAgreesWithNaive(t, p);
}

// Property test: random programs over random trees — the optimized
// executor must agree with the Fig. 7 reference semantics everywhere.
class ExecutorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorPropertyTest, RandomProgramsAgree) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<unsigned>(n));
  };

  // Random tree over a small tag vocabulary.
  const char* tags[] = {"a", "b", "c"};
  // Parents are picked at random, so the builder renumbers to preorder;
  // only data-less nodes become parents (leaves with data stay leaves).
  hdt::HdtBuilder builder;
  hdt::NodeId root = builder.AddRoot("r");
  std::vector<hdt::NodeId> nodes{root};
  int num_nodes = 5 + pick(20);
  for (int i = 0; i < num_nodes; ++i) {
    hdt::NodeId parent = nodes[static_cast<size_t>(pick(
        static_cast<int>(nodes.size())))];
    const char* tag = tags[pick(3)];
    if (pick(2)) {
      builder.AddChild(parent, tag, std::to_string(pick(5)));
    } else {
      nodes.push_back(builder.AddChild(parent, tag));
    }
  }
  const hdt::Hdt t = builder.Finish();

  // Random program: 1-3 columns, 0-2 atoms, 1-2 clauses.
  auto random_column = [&]() {
    ColumnExtractor pi;
    int len = pick(3);
    for (int s = 0; s < len; ++s) {
      int op = pick(3);
      pi.steps.push_back(dsl::ColStep{static_cast<ColOp>(op), tags[pick(3)],
                                      pick(2)});
    }
    return pi;
  };
  auto random_node_path = [&]() {
    dsl::NodeExtractor phi;
    int len = pick(3);
    for (int s = 0; s < len; ++s) {
      if (pick(2)) {
        phi.steps.push_back(dsl::NodeStep{NodeOp::kParent, "", 0});
      } else {
        phi.steps.push_back(dsl::NodeStep{NodeOp::kChild, tags[pick(3)],
                                          pick(2)});
      }
    }
    return phi;
  };

  Program p;
  int k = 1 + pick(3);
  for (int i = 0; i < k; ++i) p.columns.push_back(random_column());
  int num_atoms = pick(3);
  for (int i = 0; i < num_atoms; ++i) {
    Atom a;
    a.lhs_col = pick(k);
    a.lhs_path = random_node_path();
    a.op = static_cast<CmpOp>(pick(6));
    if (pick(2)) {
      a.rhs_is_const = true;
      a.rhs_const = std::to_string(pick(5));
    } else {
      a.rhs_is_const = false;
      a.rhs_col = pick(k);
      a.rhs_path = random_node_path();
    }
    p.atoms.push_back(a);
  }
  if (!p.atoms.empty()) {
    Dnf f;
    int clauses = 1 + pick(2);
    for (int c = 0; c < clauses; ++c) {
      std::vector<Literal> clause;
      int lits = 1 + pick(static_cast<int>(p.atoms.size()));
      for (int l = 0; l < lits; ++l) {
        clause.push_back(
            Literal{pick(static_cast<int>(p.atoms.size())), pick(2) == 0});
      }
      f.clauses.push_back(clause);
    }
    p.formula = f;
  }
  ExpectAgreesWithNaive(t, p);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorPropertyTest,
                         ::testing::Range(0, 120));

}  // namespace
}  // namespace mitra::core

namespace mitra::core {
namespace {

/// The optimized executor (sequential and pooled) and the naive evaluator
/// equal ReferenceEvalProgram on `p`, tuple for tuple and row for row.
void ExpectAgreesWithReference(const hdt::Hdt& tree, const Program& p) {
  common::ThreadPool pool(4);
  const testing::CheckResult r =
      testing::CheckExecutionEquivalence(tree, p, &pool);
  EXPECT_TRUE(r.ok && !r.skipped) << r.failure;
  auto want = dsl::ReferenceEvalProgram(tree, p);
  auto got = ExecuteOptimized(tree, p);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  hdt::Table a = std::move(want).value(), b = std::move(got).value();
  a.SortRows();
  b.SortRows();
  EXPECT_EQ(a.rows(), b.rows()) << dsl::ToString(p);
}

dsl::NodeExtractor ChildStep(const std::string& tag) {
  return dsl::NodeExtractor{{{NodeOp::kChild, tag, 0}}};
}

TEST(OptimizedExecutor, ChildStepOnAbsentTagIsBottomEverywhere) {
  // No element of kDoc is tagged `nope`: a step to it is ⊥ on every node,
  // so its atom is false and its negation true.
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  const ColumnExtractor ps{{{ColOp::kChildren, "p", 0}}};
  for (bool negated : {false, true}) {
    // A unary literal against a constant, and between two paths of one
    // column.
    Atom to_const;
    to_const.lhs_col = 0;
    to_const.lhs_path = ChildStep("nope");
    to_const.op = CmpOp::kNe;
    to_const.rhs_is_const = true;
    to_const.rhs_const = "1";
    Atom same_col;
    same_col.lhs_col = 0;
    same_col.lhs_path = ChildStep("nope");
    same_col.op = CmpOp::kEq;
    same_col.rhs_col = 0;
    same_col.rhs_path = ChildStep("id");
    for (const Atom& a : {to_const, same_col}) {
      Program p;
      p.columns = {ps};
      p.atoms = {a};
      p.formula = Dnf{{{Literal{0, negated}}}};
      ExpectAgreesWithReference(t, p);
    }
    // A hash-join driver with the absent tag on the probing side and on
    // the indexed side; then, behind a driver that holds, a check literal
    // that names it.
    for (bool absent_on_lhs : {true, false}) {
      Program p;
      p.columns = {ps, Fids()};
      Atom join = JoinIdFid();
      join.lhs_path = ChildStep(absent_on_lhs ? "nope" : "id");
      join.rhs_path = absent_on_lhs ? dsl::NodeExtractor{} : ChildStep("nope");
      p.atoms = {join};
      p.formula = Dnf{{{Literal{0, negated}}}};
      ExpectAgreesWithReference(t, p);
    }
    Program p;
    p.columns = {Names(), Fids()};
    Atom check = JoinIdFid();
    check.op = CmpOp::kLe;
    check.lhs_path.steps.push_back({NodeOp::kChild, "nope", 0});
    p.atoms = {JoinIdFid(), check};
    p.formula = Dnf{{{Literal{0, false}, Literal{1, negated}}}};
    ExpectAgreesWithReference(t, p);
  }
}

/// r → v* → x, the x leaves holding "10", "9", "3", "3.0", "-0", "0",
/// "abc" and "", then one x with no data at all.
hdt::Hdt ComparisonLeaves() {
  hdt::HdtBuilder b;
  const hdt::NodeId r = b.AddRoot("r");
  for (const char* v : {"10", "9", "3", "3.0", "-0", "0", "abc", ""}) {
    b.AddChild(b.AddChild(r, "v"), "x", v);
  }
  b.AddChild(b.AddChild(r, "v"), "x");
  return b.Finish();
}

TEST(OptimizedExecutor, LeafComparisonsUnderEveryOperator) {
  // Every ordered pair of leaves under every operator: numeric when both
  // sides are numbers ("10" > "9", "3" = "3.0", "-0" = "0"), else
  // lexicographic ("abc" > "10"), a data-less leaf comparing as "".
  const hdt::Hdt t = ComparisonLeaves();
  const ColumnExtractor vs{{{ColOp::kChildren, "v", 0}}};
  const ColumnExtractor xs{
      {{ColOp::kChildren, "v", 0}, {ColOp::kChildren, "x", 0}}};
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    for (bool negated : {false, true}) {
      // The leaves themselves, and the leaves reached from their parents.
      Program direct;
      direct.columns = {xs, xs};
      Atom a;
      a.lhs_col = 0;
      a.op = op;
      a.rhs_col = 1;
      direct.atoms = {a};
      direct.formula = Dnf{{{Literal{0, negated}}}};
      Program via = direct;
      via.columns = {vs, vs};
      via.atoms[0].lhs_path = ChildStep("x");
      via.atoms[0].rhs_path = ChildStep("x");
      ExpectAgreesWithReference(t, direct);
      ExpectAgreesWithReference(t, via);
    }
  }
}

TEST(OptimizedExecutor, JoinGraphOrderingAvoidsCrossProduct) {
  // Motivating-example shape: both equalities involve column 2, so the
  // planner must bind column 2 right after column 0 — otherwise levels
  // 0×1 enumerate a full cross product.
  hdt::Hdt t = test::ParseXmlOrDie(kDoc);
  Program p;
  p.columns = {Names(), Names(), Fids()};
  Atom a02;  // parent(t[0]) vs parent^3-ish: use data join id=fid
  a02.lhs_col = 0;
  a02.lhs_path = dsl::NodeExtractor{
      {{NodeOp::kParent, "", 0}, {NodeOp::kChild, "id", 0}}};
  a02.op = CmpOp::kEq;
  a02.rhs_is_const = false;
  a02.rhs_col = 2;
  Atom a12 = a02;
  a12.lhs_col = 1;
  p.atoms = {a02, a12};
  p.formula = Dnf{{{Literal{0, false}, Literal{1, false}}}};

  OptimizedExecutor exec(p);
  std::string plan = exec.DescribePlan();
  // Level 1 must bind column 2 (not column 1).
  EXPECT_NE(plan.find("level 1: column 2"), std::string::npos) << plan;
  EXPECT_NE(plan.find("level 2: column 1"), std::string::npos) << plan;
  ExpectAgreesWithNaive(t, p);
}

// Two overlapping clauses: x1 holds a1..a10 and x2 holds a1..a4. Clause 1
// (a < 4) emits 6 tuples; clause 2 (a < 11) enumerates 14, of which 8 are
// new, 10 of them under x1. The one enumeration loop must give the same
// tuples, or the same overflow, with no pool and at every pool size.
TEST(OptimizedExecutor, OverlappingClausesAgreeAtEveryPoolSize) {
  hdt::Hdt t = ParseXmlOrDie(
      "<r><x><a>1</a><a>2</a><a>3</a><a>4</a><a>5</a><a>6</a><a>7</a>"
      "<a>8</a><a>9</a><a>10</a></x>"
      "<x><a>1</a><a>2</a><a>3</a><a>4</a></x></r>");
  Program p;
  p.columns = {ColumnExtractor{{{ColOp::kChildren, "x", 0}}},
               ColumnExtractor{{{ColOp::kDescendants, "a", 0}}}};
  Atom parent_is_x;  // parent(t[1]) = t[0], a node identity join
  parent_is_x.lhs_col = 1;
  parent_is_x.lhs_path = dsl::NodeExtractor{{{NodeOp::kParent, "", 0}}};
  parent_is_x.op = CmpOp::kEq;
  parent_is_x.rhs_col = 0;
  Atom below;
  below.lhs_col = 1;
  below.rhs_is_const = true;
  below.op = CmpOp::kLt;
  Atom below_4 = below, below_11 = below;
  below_4.rhs_const = "4";
  below_11.rhs_const = "11";
  p.atoms = {parent_is_x, below_4, below_11};
  p.formula = Dnf{{{Literal{0, false}, Literal{1, false}},
                   {Literal{0, false}, Literal{2, false}}}};
  ExpectAgreesWithNaive(t, p);

  OptimizedExecutor exec(p);
  common::ThreadPool pool1(1), pool4(4), pool8(8);
  // A cap of 9 lies between clause 2's post-dedup (8) and pre-dedup (14)
  // counts; a cap of 7 lies below its post-dedup count.
  for (uint64_t cap : {9u, 7u}) {
    std::optional<Result<NodeTable>> base;
    for (common::ThreadPool* pool :
         {static_cast<common::ThreadPool*>(nullptr), &pool1, &pool4,
          &pool8}) {
      ExecuteOptions opts;
      opts.max_output_rows = cap;
      opts.pool = pool;
      auto got = exec.ExecuteNodes(t, opts);
      const std::string what = "cap " + std::to_string(cap) + ", " +
                               std::to_string(pool ? pool->size() : 0) +
                               " threads";
      if (cap == 9) {
        ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
        EXPECT_EQ(got->size(), 14u) << what;
      } else {
        ASSERT_FALSE(got.ok()) << what;
        EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
      }
      if (!base) {
        base = std::move(got);
      } else if (got.ok()) {
        EXPECT_EQ(*got, **base) << what;
      } else {
        EXPECT_EQ(got.status().ToString(), base->status().ToString())
            << what;
      }
    }
  }
}

/// The program `a = b` over the leaves tagged `a` and `b`: one hash-join
/// level whose index holds every `b` leaf.
Program LeafJoin() {
  Program p;
  p.columns = {ColumnExtractor{{{ColOp::kDescendants, "a", 0}}},
               ColumnExtractor{{{ColOp::kDescendants, "b", 0}}}};
  Atom eq;
  eq.lhs_col = 0;
  eq.op = CmpOp::kEq;
  eq.rhs_col = 1;
  p.atoms = {eq};
  p.formula = Dnf{{{Literal{0, false}}}};
  return p;
}

/// A root with `a` leaves holding `as` and `b` leaves holding `bs`.
hdt::Hdt LeafDoc(const std::vector<std::string>& as,
                 const std::vector<std::string>& bs) {
  hdt::HdtBuilder builder;
  const hdt::NodeId root = builder.AddRoot("r");
  for (const std::string& v : as) builder.AddChild(root, "a", v);
  for (const std::string& v : bs) builder.AddChild(root, "b", v);
  return builder.Finish();
}

/// ExecuteNodes holds the reference evaluator's tuples, and the same
/// sequence with no pool and on 1-, 4- and 8-thread pools; Execute
/// projects the reference's rows.
void ExpectJoinMatchesReferenceAtEveryPoolSize(const hdt::Hdt& tree,
                                               const Program& p,
                                               size_t want_rows) {
  auto want = dsl::ReferenceEvalProgramNodeTuples(tree, p);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  std::vector<dsl::NodeTuple> want_sorted = std::move(want).value();
  std::sort(want_sorted.begin(), want_sorted.end());
  ASSERT_EQ(want_sorted.size(), want_rows);

  OptimizedExecutor exec(p);
  common::ThreadPool pool1(1), pool4(4), pool8(8);
  std::optional<NodeTable> base;
  for (common::ThreadPool* pool :
       {static_cast<common::ThreadPool*>(nullptr), &pool1, &pool4, &pool8}) {
    const size_t threads = pool != nullptr ? pool->size() : 0;
    ExecuteOptions opts;
    opts.pool = pool;
    auto got = exec.ExecuteNodes(tree, opts);
    ASSERT_TRUE(got.ok()) << threads << ": " << got.status().ToString();
    EXPECT_EQ(got->arity, 2u);
    std::vector<dsl::NodeTuple> tuples = got->ToTuples();
    std::sort(tuples.begin(), tuples.end());
    EXPECT_EQ(tuples, want_sorted) << threads << " threads";
    if (!base) {
      base = std::move(got).value();
    } else {
      EXPECT_EQ(*got, *base) << threads << " threads";
    }
  }
  auto want_table = dsl::ReferenceEvalProgram(tree, p);
  auto got_table = exec.Execute(tree);
  ASSERT_TRUE(want_table.ok() && got_table.ok());
  want_table->SortRows();
  got_table->SortRows();
  EXPECT_EQ(got_table->rows(), want_table->rows());
}

TEST(OptimizedExecutor, JoinOnOneKeySharedByEveryCandidate) {
  // Every `b` leaf keys as the number 7, so the index is one group of
  // 2000 candidates and every (a, b) pair joins.
  std::vector<std::string> as(50, "7"), bs;
  for (int i = 0; i < 2000; ++i) bs.push_back(i % 2 == 0 ? "7" : "7.0");
  ExpectJoinMatchesReferenceAtEveryPoolSize(LeafDoc(as, bs), LeafJoin(),
                                            50 * 2000);
}

TEST(OptimizedExecutor, JoinOverMoreThan65536DistinctKeys) {
  // 70 000 distinct keys, numbers and dictionary strings alternating, so
  // the slot table is large and sparse groups are one candidate long.
  std::vector<std::string> bs;
  for (int i = 0; i < 70'000; ++i) {
    bs.push_back(i % 2 == 0 ? std::to_string(i) : "k" + std::to_string(i));
  }
  const std::vector<std::string> as{"4", "k69999", "nope", "4.0", "69998",
                                    "-0", "0"};
  // "4" and "4.0" meet b = "4"; "-0" and "0" meet b = "0".
  ExpectJoinMatchesReferenceAtEveryPoolSize(LeafDoc(as, bs), LeafJoin(), 6);
}

TEST(OptimizedExecutor, EmitChargeIsTheRowCountAtEveryPoolSize) {
  // One clause, 300 rows: the exec/emit charge is the exact row count at
  // every pool size, so the budget decision does not depend on it.
  std::vector<std::string> as;
  for (int i = 0; i < 300; ++i) as.push_back(std::to_string(i));
  const hdt::Hdt t = LeafDoc(as, {});
  Program p;
  p.columns = {ColumnExtractor{{{ColOp::kDescendants, "a", 0}}}};
  p.formula = Dnf::True();
  OptimizedExecutor exec(p);
  common::ThreadPool pool1(1), pool4(4), pool8(8);
  for (common::ThreadPool* pool :
       {static_cast<common::ThreadPool*>(nullptr), &pool1, &pool4, &pool8}) {
    const std::string what =
        std::to_string(pool != nullptr ? pool->size() : 0) + " threads";
    for (uint64_t max_rows : {1000u, 300u, 299u}) {
      common::ResourceLimits limits;
      limits.max_rows = max_rows;
      common::Governor gov(limits);
      ExecuteOptions opts;
      opts.pool = pool;
      opts.governor = &gov;
      auto got = exec.ExecuteNodes(t, opts);
      if (max_rows >= 300) {
        ASSERT_TRUE(got.ok()) << what << ", max_rows " << max_rows << ": "
                              << got.status().ToString();
        EXPECT_EQ(got->size(), 300u) << what;
        EXPECT_EQ(gov.Usage().rows, 300u) << what;
      } else {
        ASSERT_FALSE(got.ok()) << what;
        EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
        EXPECT_EQ(got.status().message(),
                  "row budget exceeded at exec/emit")
            << what;
      }
    }
  }
}

TEST(OptimizedExecutor, RunawayEnumerationStopsWithinAChunkOf256Rows) {
  // 2000 × 2000 rows under a budget of 10: the first 256-row charge of
  // the one chunk trips it, long before the cross product is built.
  std::vector<std::string> vs(2000, "v");
  const hdt::Hdt t = LeafDoc(vs, vs);
  Program p;
  p.columns = {ColumnExtractor{{{ColOp::kDescendants, "a", 0}}},
               ColumnExtractor{{{ColOp::kDescendants, "b", 0}}}};
  p.formula = Dnf::True();
  common::ResourceLimits limits;
  limits.max_rows = 10;
  common::Governor gov(limits);
  ExecuteOptions opts;
  opts.governor = &gov;
  auto got = OptimizedExecutor(p).ExecuteNodes(t, opts);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().message(), "row budget exceeded at exec/emit");
  EXPECT_EQ(gov.Usage().rows, 256u);
}

TEST(ColumnCacheTest, SharesExtractionsAcrossPrograms) {
  hdt::Hdt t = test::ParseXmlOrDie(kDoc);
  Program p1, p2;
  p1.columns = {Fids()};
  p2.columns = {Fids(), Names()};
  ColumnCache cache(t);
  ExecuteOptions opts;
  opts.column_cache = &cache;
  OptimizedExecutor e1(p1), e2(p2);
  ASSERT_TRUE(e1.Execute(t, opts).ok());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  ASSERT_TRUE(e2.Execute(t, opts).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 1u);  // Fids() reused
  // Results with and without the cache agree.
  auto with = e2.Execute(t, opts);
  auto without = e2.Execute(t);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_TRUE(with->BagEquals(*without));
  // A cache is bound to the tree it was built for.
  hdt::Hdt other = test::ParseXmlOrDie(kDoc);
  auto foreign = e2.Execute(other, opts);
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mitra::core
