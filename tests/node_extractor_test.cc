#include <gtest/gtest.h>

#include "core/example.h"
#include "core/node_extractor_enum.h"
#include "dsl/eval.h"
#include "test_util.h"

namespace mitra::core {
namespace {

using test::MakeTable;
using test::ParseXmlOrDie;

const char* kDoc = R"(
<r>
  <p id="1"><n>A</n><f fid="2"/></p>
  <p id="2"><n>B</n><f fid="1"/></p>
</r>
)";

dsl::ColumnExtractor NCol() {
  return dsl::ColumnExtractor{{{dsl::ColOp::kChildren, "p", 0},
                               {dsl::ColOp::kPChildren, "n", 0}}};
}

// χᵢ for column `pi`: the extractors valid on the nodes πᵢ produces on each
// example tree.
Result<std::vector<EnumeratedExtractor>> EnumerateNodeExtractors(
    const Examples& examples, const dsl::ColumnExtractor& pi,
    const NodeExtractorEnumOptions& opts = {}) {
  std::vector<const hdt::Hdt*> trees;
  std::vector<std::vector<hdt::NodeId>> sources;
  for (const Example& e : examples) {
    trees.push_back(e.tree);
    sources.push_back(dsl::EvalColumn(*e.tree, pi));
  }
  return EnumerateNodeExtractorsFromSources(trees, sources, opts);
}

TEST(NodeExtractorEnum, IdentityAlwaysPresent) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  hdt::Table r = MakeTable({{"A"}, {"B"}});
  Examples ex{{&t, &r}};
  auto result = EnumerateNodeExtractors(ex, NCol());
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->empty());
  EXPECT_TRUE((*result)[0].extractor.steps.empty());
}

TEST(NodeExtractorEnum, ValidityNeverBottom) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  hdt::Table r = MakeTable({{"A"}, {"B"}});
  Examples ex{{&t, &r}};
  auto result = EnumerateNodeExtractors(ex, NCol());
  ASSERT_TRUE(result.ok());
  auto sources = dsl::EvalColumn(t, NCol());
  for (const auto& ee : *result) {
    const dsl::BoundNodeExtractor bound =
        dsl::BindNodeExtractor(t, ee.extractor);
    for (size_t k = 0; k < sources.size(); ++k) {
      hdt::NodeId m = dsl::EvalNodeExtractor(t, bound, sources[k]);
      EXPECT_NE(m, hdt::kInvalidNode) << dsl::ToString(ee.extractor);
      EXPECT_EQ(m, ee.targets[0][k]);
    }
  }
}

TEST(NodeExtractorEnum, FindsParentAndSiblingPaths) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  hdt::Table r = MakeTable({{"A"}, {"B"}});
  Examples ex{{&t, &r}};
  auto result = EnumerateNodeExtractors(ex, NCol());
  ASSERT_TRUE(result.ok());
  bool found_parent = false, found_sibling_id = false;
  dsl::NodeExtractor parent{{{dsl::NodeOp::kParent, "", 0}}};
  dsl::NodeExtractor sibling_id{
      {{dsl::NodeOp::kParent, "", 0}, {dsl::NodeOp::kChild, "id", 0}}};
  for (const auto& ee : *result) {
    if (ee.extractor == parent) found_parent = true;
    if (ee.extractor == sibling_id) found_sibling_id = true;
  }
  EXPECT_TRUE(found_parent);
  EXPECT_TRUE(found_sibling_id);
}

TEST(NodeExtractorEnum, BehavioralDedupDropsRoundTrips) {
  // child(parent(n), n, 0) maps every source to itself — same behavior as
  // the identity, so it must be deduplicated away.
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  hdt::Table r = MakeTable({{"A"}, {"B"}});
  Examples ex{{&t, &r}};
  auto result = EnumerateNodeExtractors(ex, NCol());
  ASSERT_TRUE(result.ok());
  dsl::NodeExtractor round_trip{
      {{dsl::NodeOp::kParent, "", 0}, {dsl::NodeOp::kChild, "n", 0}}};
  for (const auto& ee : *result) {
    EXPECT_FALSE(ee.extractor == round_trip);
  }
}

TEST(NodeExtractorEnum, DepthBounded) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  hdt::Table r = MakeTable({{"A"}, {"B"}});
  Examples ex{{&t, &r}};
  NodeExtractorEnumOptions opts;
  opts.max_depth = 1;
  auto result = EnumerateNodeExtractors(ex, NCol(), opts);
  ASSERT_TRUE(result.ok());
  for (const auto& ee : *result) {
    EXPECT_LE(ee.extractor.steps.size(), 1u);
  }
}

TEST(NodeExtractorEnum, CapRespected) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  hdt::Table r = MakeTable({{"A"}, {"B"}});
  Examples ex{{&t, &r}};
  NodeExtractorEnumOptions opts;
  opts.max_extractors = 3;
  auto result = EnumerateNodeExtractors(ex, NCol(), opts);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->size(), 3u);
}

TEST(NodeExtractorEnum, MultiExampleValidity) {
  // In the second tree, p has no `f` child: child(parent(n), f, 0) is
  // invalid across the example set and must not be enumerated.
  hdt::Hdt t1 = ParseXmlOrDie(kDoc);
  hdt::Hdt t2 = ParseXmlOrDie(R"(<r><p id="3"><n>C</n></p></r>)");
  hdt::Table r1 = MakeTable({{"A"}, {"B"}});
  hdt::Table r2 = MakeTable({{"C"}});
  Examples ex{{&t1, &r1}, {&t2, &r2}};
  auto result = EnumerateNodeExtractors(ex, NCol());
  ASSERT_TRUE(result.ok());
  dsl::NodeExtractor to_f{
      {{dsl::NodeOp::kParent, "", 0}, {dsl::NodeOp::kChild, "f", 0}}};
  for (const auto& ee : *result) {
    EXPECT_FALSE(ee.extractor == to_f) << "invalid extractor enumerated";
  }
}

}  // namespace
}  // namespace mitra::core
