// Self-tests for the src/testing harness: RNG and generator determinism,
// generator invariants (parser-image documents, well-typed programs),
// mutation determinism, and shrinker behavior on a seeded failure.

#include <gtest/gtest.h>

#include "dsl/eval.h"
#include "testing/fuzz_util.h"
#include "testing/generators.h"
#include "testing/oracles.h"
#include "testing/shrink.h"
#include "testing/tree_edit.h"
#include "test_util.h"

namespace mitra::testing {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(7), b(8);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 3);
}

TEST(Rng, RangeIsInclusiveAndBounded) {
  Rng rng(1);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int v = rng.Range(-2, 3);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -2);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Generators, DocumentsAreDeterministicPerSeed) {
  for (uint64_t seed : {1ULL, 99ULL, 123456ULL}) {
    Rng a(seed), b(seed);
    EXPECT_EQ(GenerateDocument(&a).ToDebugString(),
              GenerateDocument(&b).ToDebugString());
  }
}

TEST(Generators, XmlShapeDocumentsAreInTheParserImage) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    hdt::Hdt doc = GenerateDocument(&rng, {.xml_shape = true});
    CheckResult r = CheckXmlRoundTrip(doc);
    EXPECT_TRUE(r.ok) << "seed=" << seed << "\n" << r.failure;
  }
}

TEST(Generators, JsonShapeDocumentsAreInTheParserImage) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    hdt::Hdt doc = GenerateDocument(&rng, {.xml_shape = false});
    CheckResult r = CheckJsonRoundTrip(doc);
    EXPECT_TRUE(r.ok) << "seed=" << seed << "\n" << r.failure;
  }
}

TEST(Generators, ProgramsAreWellTypedOverTheirDocument) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    hdt::Hdt doc = GenerateDocument(&rng);
    dsl::Program prog = GenerateProgram(&rng, doc);
    auto rows = dsl::EvalProgram(doc, prog);
    EXPECT_TRUE(rows.ok()) << "seed=" << seed << ": "
                           << rows.status().ToString();
  }
}

TEST(Generators, EnlargedDocumentContainsTheOriginal) {
  Rng rng(11);
  hdt::Hdt doc = GenerateDocument(&rng);
  hdt::Hdt big = EnlargeDocument(&rng, doc, 2);
  EXPECT_GT(big.size(), doc.size());
  // The original root's children are a prefix of the enlarged root's.
  EXPECT_GE(test::Kids(big, 0).size(), test::Kids(doc, 0).size());
}

TEST(MutateBytes, DeterministicPerSeed) {
  std::string a = "<r><a>1</a></r>", b = a;
  Rng ra(5), rb(5);
  for (int i = 0; i < 200; ++i) {
    MutateBytes(&ra, &a);
    MutateBytes(&rb, &b);
  }
  EXPECT_EQ(a, b);
}

// Shrinking against a stable predicate must keep the predicate true and
// reach a (locally) minimal case.
TEST(Shrinker, ReducesDocumentAndProgramToAMinimalFailingCase) {
  // Stand-in failure: "the program yields at least one row" — shrinks
  // like a real failure would. Scan seeds for a non-trivial case (random
  // predicates often yield zero rows, which this oracle skips).
  auto fails = [](const hdt::Hdt& d, const dsl::Program& p) {
    auto rows = dsl::EvalProgramNodeTuples(d, p);
    return rows.ok() && !rows->empty();
  };
  hdt::Hdt doc;
  dsl::Program prog;
  bool found = false;
  for (uint64_t seed = 0; seed < 200 && !found; ++seed) {
    Rng rng(seed);
    DocGenOptions dopts;
    dopts.max_nodes = 40;
    hdt::Hdt d = GenerateDocument(&rng, dopts);
    dsl::Program p = GenerateProgram(&rng, d);
    if (d.size() > 8 && (p.columns.size() > 1 || !p.formula.IsTrue()) &&
        fails(d, p)) {
      doc = CopyTree(d);
      prog = p;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no seed in [0,200) produced a shrinkable case";

  ShrunkCase small = ShrinkCase(doc, prog, fails);
  EXPECT_TRUE(fails(small.doc, small.program));
  EXPECT_GT(small.edits, 0);
  EXPECT_LT(small.doc.size(), doc.size());
  // The minimal such case is tiny: predicate `true` on a short column.
  EXPECT_TRUE(small.program.formula.IsTrue());
  EXPECT_EQ(small.program.columns.size(), 1u);
}

TEST(TreeEdit, CopyTreePreservesDebugStringAndProvenance) {
  Rng rng(3);
  hdt::Hdt doc = GenerateDocument(&rng);
  hdt::Hdt copy = CopyTree(doc);
  ASSERT_EQ(copy.size(), doc.size());
  EXPECT_EQ(copy.ToDebugString(), doc.ToDebugString());
  for (hdt::NodeId n = 0; n < static_cast<hdt::NodeId>(doc.size()); ++n) {
    EXPECT_EQ(copy.IsAttribute(n), doc.IsAttribute(n));
    EXPECT_EQ(copy.IsTextRun(n), doc.IsTextRun(n));
  }
}

TEST(TreeEdit, CopyWithoutSubtreeRemovesExactlyThatSubtree) {
  Rng rng(13);
  hdt::Hdt doc = GenerateDocument(&rng);
  ASSERT_GT(doc.size(), 2u);
  hdt::NodeId victim = 1;
  size_t victim_size = 0;
  std::vector<hdt::NodeId> stack = {victim};
  while (!stack.empty()) {
    hdt::NodeId n = stack.back();
    stack.pop_back();
    ++victim_size;
    for (hdt::NodeId c : test::Kids(doc, n)) stack.push_back(c);
  }
  hdt::Hdt smaller = CopyWithoutSubtree(doc, victim);
  EXPECT_EQ(smaller.size(), doc.size() - victim_size);
}

}  // namespace
}  // namespace mitra::testing
