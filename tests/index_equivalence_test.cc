/// Indexed-HDT navigation suite. A tree is indexed when it is built (node
/// ids are preorder ranks; children by (tag, document order), per-tag
/// postings and the leaf-data dictionary are flat arrays), so every
/// indexed query here is checked against a naive scan written in this
/// file over Parent() / Tag() / Pos() / Data() alone:
///
///  - navigation (Children, ChildrenWithTag, ChildWithTagPos,
///    DescendantsWithTag, subtree ends, vocabularies, dictionary) over
///    fuzz-generated XML- and JSON-shaped documents;
///  - the column extractors of generated programs, and their results
///    through naive EvalProgram (the same rows) and OptimizedExecutor
///    (sequential and 8-thread pool: the exact same row vectors);
///  - a subtree copied onto a parent off the builder's rightmost path is
///    renumbered by Finish() and navigates like a parsed copy of the same
///    document;
///  - governor check sites keep firing inside indexed scans;
///  - on the 98-task §7.1 corpus, the synthesized program executes alike
///    in the reference evaluator (plain Children() walks), naive,
///    optimized and pooled.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/governor.h"
#include "common/thread_pool.h"
#include "core/executor.h"
#include "core/synthesizer.h"
#include "dsl/eval.h"
#include "dsl/reference_eval.h"
#include "test_util.h"
#include "testing/generators.h"
#include "testing/rng.h"
#include "testing/tree_edit.h"
#include "workload/corpus.h"

namespace mitra {
namespace {

using hdt::Hdt;
using hdt::NodeId;
using hdt::TagId;

std::vector<NodeId> ToVec(std::span<const NodeId> s) {
  return {s.begin(), s.end()};
}

// --- naive navigation: Parent() / Tag() / Pos() scans only -----------------

/// Children of `n` in document order: the nodes whose parent is `n`, by
/// ascending id (ids are preorder ranks).
std::vector<NodeId> NaiveChildren(const Hdt& t, NodeId n) {
  std::vector<NodeId> out;
  for (NodeId m = 0; m < static_cast<NodeId>(t.size()); ++m) {
    if (t.Parent(m) == n) out.push_back(m);
  }
  return out;
}

std::vector<NodeId> NaiveChildrenWithTag(const Hdt& t, NodeId n, TagId tag) {
  std::vector<NodeId> out;
  for (NodeId c : NaiveChildren(t, n)) {
    if (t.Tag(c) == tag) out.push_back(c);
  }
  return out;
}

/// True when `a` is a proper ancestor of `m`, by walking parents.
bool NaiveIsAncestor(const Hdt& t, NodeId a, NodeId m) {
  for (NodeId p = t.Parent(m); p != hdt::kInvalidNode; p = t.Parent(p)) {
    if (p == a) return true;
  }
  return false;
}

std::vector<NodeId> NaiveDescendantsWithTag(const Hdt& t, NodeId n,
                                            TagId tag) {
  std::vector<NodeId> out;
  for (NodeId m = 0; m < static_cast<NodeId>(t.size()); ++m) {
    if (t.Tag(m) == tag && NaiveIsAncestor(t, n, m)) out.push_back(m);
  }
  return out;
}

/// Compares every indexed query on `t` with the naive scans: all
/// (node, tag) pairs, every pchildren position, subtree ends, the
/// vocabularies and the dictionary.
void ExpectNavigationMatchesNaive(const Hdt& t) {
  const auto num_tags = static_cast<TagId>(t.NumTags());
  const auto size = static_cast<NodeId>(t.size());
  ASSERT_GT(size, 0);
  EXPECT_EQ(t.Parent(t.root()), hdt::kInvalidNode);
  std::set<std::pair<TagId, int32_t>> seen_pairs;
  std::vector<std::pair<TagId, int32_t>> pairs;
  std::vector<std::string> values;
  for (NodeId n = 0; n < size; ++n) {
    const std::vector<NodeId> kids = NaiveChildren(t, n);
    EXPECT_EQ(test::Kids(t, n), kids) << "node " << n;
    EXPECT_EQ(t.NumChildren(n), kids.size()) << "node " << n;
    EXPECT_EQ(t.IsLeaf(n), kids.empty()) << "node " << n;
    if (n > 0) {
      ASSERT_LT(t.Parent(n), n) << "preorder: parents come first";
      int32_t same_tag_before = 0;
      for (NodeId sib : NaiveChildren(t, t.Parent(n))) {
        if (sib == n) break;
        if (t.Tag(sib) == t.Tag(n)) ++same_tag_before;
      }
      EXPECT_EQ(t.Pos(n), same_tag_before) << "node " << n;
      if (seen_pairs.insert({t.Tag(n), t.Pos(n)}).second) {
        pairs.emplace_back(t.Tag(n), t.Pos(n));
      }
    }
    if (t.HasData(n)) {
      EXPECT_TRUE(t.IsLeaf(n)) << "only leaves carry data";
      if (std::find(values.begin(), values.end(), t.Data(n)) == values.end()) {
        values.emplace_back(t.Data(n));
      }
    }
    NodeId end = n + 1;
    while (end < size && NaiveIsAncestor(t, n, end)) ++end;
    EXPECT_EQ(t.SubtreeEnd(n), end) << "node " << n;
    int depth = 0;
    for (NodeId p = t.Parent(n); p != hdt::kInvalidNode; p = t.Parent(p)) {
      ++depth;
    }
    EXPECT_EQ(t.Depth(n), depth);

    for (TagId tag = 0; tag < num_tags; ++tag) {
      const std::vector<NodeId> want = NaiveChildrenWithTag(t, n, tag);
      EXPECT_EQ(ToVec(t.ChildrenWithTag(n, tag)), want)
          << "node " << n << " tag " << t.TagName(tag);
      EXPECT_EQ(ToVec(t.DescendantsWithTag(n, tag)),
                NaiveDescendantsWithTag(t, n, tag))
          << "node " << n << " tag " << t.TagName(tag);
      for (int32_t pos = -1; pos <= static_cast<int32_t>(want.size());
           ++pos) {
        const NodeId expect =
            pos >= 0 && pos < static_cast<int32_t>(want.size())
                ? want[static_cast<size_t>(pos)]
                : hdt::kInvalidNode;
        EXPECT_EQ(t.ChildWithTagPos(n, tag, pos), expect)
            << "node " << n << " tag " << t.TagName(tag) << " pos " << pos;
      }
    }
  }
  EXPECT_EQ(t.AllTagPosPairs(), pairs);
  EXPECT_EQ(t.AllDataValues(), values);

  // The dictionary mirrors AllDataValues() and round-trips through
  // GetDataId / LookupDataId.
  ASSERT_EQ(t.DictSize(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(t.DictValue(static_cast<hdt::DataId>(i)), values[i]);
    auto id = t.LookupDataId(values[i]);
    ASSERT_TRUE(id.has_value()) << values[i];
    EXPECT_EQ(*id, static_cast<hdt::DataId>(i));
  }
  EXPECT_FALSE(t.LookupDataId("\x01 definitely-not-a-leaf-value \x01"));
  for (NodeId n = 0; n < size; ++n) {
    if (t.HasData(n)) {
      ASSERT_NE(t.GetDataId(n), hdt::kInvalidData) << n;
      EXPECT_EQ(t.DictValue(t.GetDataId(n)), t.Data(n)) << n;
    } else {
      EXPECT_EQ(t.GetDataId(n), hdt::kInvalidData) << n;
    }
  }
}

/// Rows as a sorted multiset: the optimized executor may emit the naive
/// evaluator's rows in another order.
std::vector<hdt::Row> SortedRows(const hdt::Table& t) {
  std::vector<hdt::Row> rows = t.rows().ToRows();
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Column extractor semantics (Fig. 7) over the naive scans.
std::vector<NodeId> NaiveEvalColumn(const Hdt& t,
                                    const dsl::ColumnExtractor& pi) {
  std::vector<NodeId> cur{t.root()};
  for (const dsl::ColStep& st : pi.steps) {
    auto tag = t.LookupTag(st.tag);
    if (!tag) return {};
    std::set<NodeId> next;
    for (NodeId n : cur) {
      std::vector<NodeId> found;
      switch (st.op) {
        case dsl::ColOp::kChildren:
          found = NaiveChildrenWithTag(t, n, *tag);
          break;
        case dsl::ColOp::kPChildren: {
          std::vector<NodeId> same = NaiveChildrenWithTag(t, n, *tag);
          if (st.pos >= 0 && st.pos < static_cast<int32_t>(same.size())) {
            found.push_back(same[static_cast<size_t>(st.pos)]);
          }
          break;
        }
        case dsl::ColOp::kDescendants:
          found = NaiveDescendantsWithTag(t, n, *tag);
          break;
      }
      next.insert(found.begin(), found.end());
    }
    cur.assign(next.begin(), next.end());
    if (cur.empty()) break;
  }
  return cur;
}

TEST(IndexEquivalence, FuzzNavigation) {
  for (bool xml_shape : {true, false}) {
    for (uint64_t seed = 1; seed <= 30; ++seed) {
      SCOPED_TRACE((xml_shape ? "xml seed " : "json seed ") +
                   std::to_string(seed));
      testing::Rng rng(seed * (xml_shape ? 1 : 0x9E3779B9u));
      testing::DocGenOptions opts;
      opts.xml_shape = xml_shape;
      opts.max_nodes = 10 + static_cast<int>(seed) * 5;
      ExpectNavigationMatchesNaive(testing::GenerateDocument(&rng, opts));
    }
  }
}

TEST(IndexEquivalence, FuzzProgramResults) {
  common::ThreadPool pool(8);
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    testing::Rng rng(seed);
    testing::DocGenOptions dopts;
    dopts.xml_shape = (seed % 2 == 0);
    dopts.max_nodes = 40;
    Hdt tree = testing::GenerateDocument(&rng, dopts);

    for (int p = 0; p < 4; ++p) {
      dsl::Program prog = testing::GenerateProgram(&rng, tree);
      SCOPED_TRACE(dsl::ToString(prog));
      for (const dsl::ColumnExtractor& pi : prog.columns) {
        EXPECT_EQ(dsl::EvalColumn(tree, pi), NaiveEvalColumn(tree, pi))
            << dsl::ToString(pi);
      }

      auto naive = dsl::EvalProgram(tree, prog);
      ASSERT_TRUE(naive.ok()) << naive.status().ToString();
      core::OptimizedExecutor exec(prog);
      auto opt = exec.Execute(tree);
      ASSERT_TRUE(opt.ok()) << opt.status().ToString();
      EXPECT_EQ(SortedRows(*naive), SortedRows(*opt));

      // The pool must not change the optimized rows, nor their order.
      core::ExecuteOptions popts;
      popts.pool = &pool;
      auto opt_mt = exec.Execute(tree, popts);
      ASSERT_TRUE(opt_mt.ok()) << opt_mt.status().ToString();
      EXPECT_EQ(opt->rows(), opt_mt->rows());
    }
  }
}

TEST(IndexEquivalence, BuilderRenumbersCopyOffTheRightmostPath) {
  const Hdt src = test::ParseXmlOrDie(
      R"(<r><a k="1"><x>1</x></a><b><y>2</y><x>3</x></b><c>4</c></r>)");
  // Copy `src`, then append a copy of <b> under <a>: <a> is no longer on
  // the builder's rightmost path, so Finish() has to renumber.
  hdt::HdtBuilder builder;
  testing::CopyInto(src, &builder);
  const NodeId a = test::Kids(src, src.root())[0];
  const NodeId b = test::Kids(src, src.root())[1];
  testing::AppendSubtreeCopy(src, b, &builder, a);
  const Hdt built = builder.Finish();

  const Hdt parsed = test::ParseXmlOrDie(
      R"(<r><a k="1"><x>1</x><b><y>2</y><x>3</x></b></a>)"
      R"(<b><y>2</y><x>3</x></b><c>4</c></r>)");
  ASSERT_EQ(built.ToDebugString(), parsed.ToDebugString());
  ExpectNavigationMatchesNaive(built);
  // Same ids, tags, provenance and dictionary as the parsed document, so
  // every query answers alike.
  ASSERT_EQ(built.size(), parsed.size());
  for (NodeId n = 0; n < static_cast<NodeId>(built.size()); ++n) {
    EXPECT_EQ(built.Parent(n), parsed.Parent(n));
    EXPECT_EQ(built.NodeTagName(n), parsed.NodeTagName(n));
    EXPECT_EQ(built.Pos(n), parsed.Pos(n));
    EXPECT_EQ(built.GetDataId(n), parsed.GetDataId(n));
    EXPECT_EQ(built.IsAttribute(n), parsed.IsAttribute(n));
    EXPECT_EQ(built.SubtreeEnd(n), parsed.SubtreeEnd(n));
  }
  EXPECT_EQ(built.AllDataValues(), parsed.AllDataValues());
  for (const std::string tag : {"x", "y", "b"}) {
    const TagId tb = *built.LookupTag(tag);
    const TagId tp = *parsed.LookupTag(tag);
    for (NodeId n = 0; n < static_cast<NodeId>(built.size()); ++n) {
      EXPECT_EQ(ToVec(built.DescendantsWithTag(n, tb)),
                ToVec(parsed.DescendantsWithTag(n, tp)));
      EXPECT_EQ(ToVec(built.ChildrenWithTag(n, tb)),
                ToVec(parsed.ChildrenWithTag(n, tp)));
    }
  }
}

TEST(IndexEquivalence, GovernorFiresInIndexedScan) {
  // Descendant-heavy program: the indexed scan must still hit the
  // governor's check/charge sites, so a tiny row budget cancels the run
  // instead of materialising everything.
  hdt::HdtBuilder builder;
  NodeId root = builder.AddRoot("db");
  for (int i = 0; i < 200; ++i) {
    NodeId rec = builder.AddChild(root, "rec");
    for (int j = 0; j < 30; ++j) {
      builder.AddChild(rec, "f", "v" + std::to_string(j));
    }
  }
  const Hdt tree = builder.Finish();

  dsl::Program prog;
  prog.columns.push_back({{{dsl::ColOp::kDescendants, "f", 0}}});
  prog.formula = dsl::Dnf::True();

  common::ResourceLimits limits;
  limits.max_rows = 16;
  common::Governor gov(limits);
  core::ExecuteOptions opts;
  opts.governor = &gov;
  auto result = core::ExecuteOptimized(tree, prog, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  EXPECT_EQ(result.status().message(), "row budget exceeded at exec/emit");
  EXPECT_GT(gov.Usage().checks, 0u);
}

// --- corpus-wide execution identity ----------------------------------------

core::SynthesisOptions CorpusOptions() {
  core::SynthesisOptions opts;
  opts.time_limit_seconds = 30.0;
  return opts;
}

Hdt ParseTaskDoc(const workload::CorpusTask& task, const std::string& doc) {
  if (task.format == workload::DocFormat::kXml) {
    return test::ParseXmlOrDie(doc);
  }
  return test::ParseJsonOrDie(doc);
}

class CorpusIndexIdentityTest : public ::testing::TestWithParam<size_t> {};

/// For every §7.1 benchmark task, the synthesized program (pinned byte for
/// byte by the programs golden) must emit the same rows through the
/// indexed evaluators as through the reference evaluator's tag-name walks
/// over Children(), byte-identical rows sequential and on an 8-thread
/// pool, and generalize where the task says so. (The name predates the
/// single, always-indexed tree; `walk` is the reference evaluator.)
TEST_P(CorpusIndexIdentityTest, FrozenMatchesWalk) {
  const workload::CorpusTask task = workload::FullCorpus()[GetParam()];
  SCOPED_TRACE(task.id);
  Hdt tree = ParseTaskDoc(task, task.document);
  hdt::Table table = test::MakeTable(task.output);
  auto r = core::LearnTransformation(tree, table, CorpusOptions());
  if (!task.expect_solvable) {
    EXPECT_FALSE(r.ok());
    return;
  }
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const dsl::Program& prog = r->program;
  auto walk = dsl::ReferenceEvalProgram(tree, prog);
  ASSERT_TRUE(walk.ok()) << walk.status().ToString();
  auto naive = dsl::EvalProgram(tree, prog);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(SortedRows(*walk), SortedRows(*naive));

  core::OptimizedExecutor exec(prog);
  auto opt = exec.Execute(tree);
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();
  EXPECT_EQ(SortedRows(*naive), SortedRows(*opt));

  common::ThreadPool pool(8);
  core::ExecuteOptions popts;
  popts.pool = &pool;
  auto opt_mt = exec.Execute(tree, popts);
  ASSERT_TRUE(opt_mt.ok()) << opt_mt.status().ToString();
  EXPECT_EQ(opt->rows(), opt_mt->rows());

  if (!task.generalization_document.empty()) {
    Hdt other = ParseTaskDoc(task, task.generalization_document);
    hdt::Table want = test::MakeTable(task.generalization_output);
    test::ExpectProgramYields(other, prog, want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTasks, CorpusIndexIdentityTest, ::testing::Range<size_t>(0, 98),
    [](const ::testing::TestParamInfo<size_t>& info) {
      std::string name = workload::FullCorpus()[info.param].id;
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace mitra
