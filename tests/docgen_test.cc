#include <gtest/gtest.h>

#include "common/strings.h"
#include "dsl/eval.h"
#include "test_util.h"
#include "workload/docgen.h"

namespace mitra::workload {
namespace {

TEST(ReplicateDocument, FactorOneIsIdentity) {
  hdt::Hdt t = test::ParseXmlOrDie("<r><a>1</a><b><c>2</c></b></r>");
  hdt::Hdt copy = ReplicateDocument(t, 1);
  EXPECT_EQ(t.ToDebugString(), copy.ToDebugString());
}

TEST(ReplicateDocument, FactorNScalesChildren) {
  hdt::Hdt t = test::ParseXmlOrDie("<r><a>1</a><a>2</a></r>");
  hdt::Hdt big = ReplicateDocument(t, 5);
  EXPECT_EQ(test::Kids(big, big.root()).size(), 10u);
  EXPECT_EQ(big.NumElements(), 11u);
  // Positions keep counting across copies.
  EXPECT_EQ(big.Pos(test::Kids(big, big.root())[9]), 9);
}

TEST(ReplicateDocument, MutationMakesValuesPerCopyUnique) {
  hdt::Hdt t = test::ParseXmlOrDie(R"(<r><e><id>x1</id><n>42</n></e></r>)");
  hdt::Hdt big = ReplicateDocument(t, 3, /*mutate_strings=*/true);
  std::vector<std::string> ids, nums;
  auto id_tag = big.LookupTag("id");
  auto n_tag = big.LookupTag("n");
  auto out = big.DescendantsWithTag(big.root(), *id_tag);
  for (auto n : out) ids.emplace_back(big.Data(n));
  for (auto n : big.DescendantsWithTag(big.root(), *n_tag)) {
    nums.emplace_back(big.Data(n));
  }
  // Copy 0 unchanged; strings suffixed, numbers offset per copy.
  EXPECT_EQ(ids, (std::vector<std::string>{"x1", "x1#1", "x1#2"}));
  ASSERT_EQ(nums.size(), 3u);
  EXPECT_EQ(nums[0], "42");
  EXPECT_DOUBLE_EQ(*ParseNumber(nums[1]), 1e9 + 42);
  EXPECT_DOUBLE_EQ(*ParseNumber(nums[2]), 2e9 + 42);
  // All three remain pairwise distinct under numeric comparison.
  EXPECT_NE(CompareData(nums[0], nums[1]), 0);
  EXPECT_NE(CompareData(nums[1], nums[2]), 0);
}

TEST(ReplicateDocument, PreservedValuesNotMutated) {
  hdt::Hdt t = test::ParseXmlOrDie(
      R"(<r><e><env>prod</env><id>x1</id></e></r>)");
  std::set<std::string> preserve{"prod"};
  hdt::Hdt big = ReplicateDocument(t, 2, true, &preserve);
  auto env_tag = big.LookupTag("env");
  auto out = big.DescendantsWithTag(big.root(), *env_tag);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(big.Data(out[0]), "prod");
  EXPECT_EQ(big.Data(out[1]), "prod");
}

TEST(ReplicateDocument, JoinProgramScalesLinearlyUnderMutation) {
  // The emp-dept join must produce factor × (rows per copy), not a
  // cross-copy explosion.
  hdt::Hdt t = test::ParseXmlOrDie(R"(
<company>
  <emp name="Ann" dept="d2"/>
  <emp name="Bo" dept="d1"/>
  <dept id="d1"><dname>Eng</dname></dept>
  <dept id="d2"><dname>Ops</dname></dept>
</company>)");
  hdt::Table r = test::MakeTable({{"Ann", "Ops"}, {"Bo", "Eng"}});
  auto result = test::SynthesizeOrDie(t, r);
  hdt::Hdt big = ReplicateDocument(t, 50, true);
  auto rows = dsl::EvalProgram(big, result.program);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->NumRows(), 100u);
}

TEST(SocialNetworkGen, RowCountMatchesPlan) {
  std::string doc = GenerateSocialNetworkXml(30, 5);
  hdt::Hdt t = test::ParseXmlOrDie(doc);
  // Count Friend elements: two per undirected edge.
  auto friend_tag = t.LookupTag("Friend");
  ASSERT_TRUE(friend_tag.has_value());
  auto out = t.DescendantsWithTag(t.root(), *friend_tag);
  EXPECT_EQ(out.size(), SocialNetworkExpectedRows(30, 5));
}

}  // namespace
}  // namespace mitra::workload
