/// Validates the §7.2 dataset scenarios end-to-end at test scale: the
/// schemas match the paper's table/column counts exactly, the migrator
/// learns every table from the generated training example, and migrating
/// a *larger* generated instance reproduces the generator's own ground
/// truth with intact key constraints.

#include <gtest/gtest.h>

#include <algorithm>

#include "db/migrator.h"
#include "test_util.h"
#include "workload/datasets.h"
#include "workload/docgen.h"

namespace mitra::workload {
namespace {

hdt::Hdt ParseDataset(const DatasetSpec& spec, const std::string& doc) {
  if (spec.format == DocFormat::kXml) return test::ParseXmlOrDie(doc);
  return test::ParseJsonOrDie(doc);
}

TEST(DatasetSchemas, MatchPaperTable2Counts) {
  struct Want {
    const char* name;
    size_t tables;
    size_t cols;
  };
  const Want wants[] = {{"DBLP", 9, 39},
                        {"IMDB", 9, 35},
                        {"MONDIAL", 25, 120},
                        {"YELP", 7, 34}};
  auto datasets = AllDatasets();
  ASSERT_EQ(datasets.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(datasets[i]->name, wants[i].name);
    EXPECT_EQ(datasets[i]->schema.tables.size(), wants[i].tables)
        << wants[i].name;
    EXPECT_EQ(datasets[i]->schema.TotalColumns(), wants[i].cols)
        << wants[i].name;
    EXPECT_TRUE(datasets[i]->schema.Validate().ok()) << wants[i].name;
  }
}

TEST(DatasetExamples, EveryTableHasAtLeastTwoRows) {
  // Guards against positional overfitting: a single-row example can be
  // explained by pchildren(…, 0) chains that do not generalize.
  for (const DatasetSpec* spec : AllDatasets()) {
    for (const auto& t : spec->schema.tables) {
      auto it = spec->example_tables.find(t.name);
      ASSERT_NE(it, spec->example_tables.end())
          << spec->name << "." << t.name;
      EXPECT_GE(it->second.size(), 2u) << spec->name << "." << t.name;
    }
  }
}

TEST(DatasetGenerators, Deterministic) {
  for (const DatasetSpec* spec : AllDatasets()) {
    EXPECT_EQ(spec->generate(5, 3), spec->generate(5, 3)) << spec->name;
    EXPECT_NE(spec->generate(5, 3), spec->generate(5, 4)) << spec->name;
  }
}

TEST(DatasetGenerators, ScaleGrowsLinearly) {
  for (const DatasetSpec* spec : AllDatasets()) {
    size_t small = spec->generate(10, 1).size();
    size_t large = spec->generate(40, 1).size();
    EXPECT_GT(large, small * 2) << spec->name;
    EXPECT_LT(large, small * 12) << spec->name;
  }
}

class DatasetMigrationTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DatasetMigrationTest, LearnsAndMigratesAtTestScale) {
  const DatasetSpec& spec = *AllDatasets()[GetParam()];
  SCOPED_TRACE(spec.name);

  hdt::Hdt example = ParseDataset(spec, spec.example_document);
  std::map<std::string, hdt::Table> examples;
  for (const auto& [name, rows] : spec.example_tables) {
    examples[name] = test::MakeTable(rows);
  }

  db::Migrator migrator(spec.schema);
  Status learned = migrator.Learn(example, examples);
  ASSERT_TRUE(learned.ok()) << learned.ToString();

  // Migrate a bigger generated instance and compare the data columns
  // with the generator's own ground truth.
  const int kScale = 12;
  const uint32_t kSeed = 99;
  hdt::Hdt full = ParseDataset(spec, spec.generate(kScale, kSeed));
  auto db = migrator.Execute(full);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(db::CheckDatabaseConstraints(spec.schema, *db).ok());

  auto want = spec.expected_tables(kScale, kSeed);
  for (const auto& tdef : spec.schema.tables) {
    const hdt::Table& got = db->tables.at(tdef.name);
    // Project the migrated table to its data columns.
    std::vector<hdt::Row> got_rows;
    for (const hdt::Row& r : got.rows()) {
      hdt::Row data;
      for (size_t c = 0; c < tdef.columns.size(); ++c) {
        if (tdef.columns[c].kind == db::ColumnKind::kData) {
          data.push_back(r[c]);
        }
      }
      got_rows.push_back(std::move(data));
    }
    std::vector<hdt::Row> want_rows = want.at(tdef.name);
    std::sort(got_rows.begin(), got_rows.end());
    std::sort(want_rows.begin(), want_rows.end());
    EXPECT_EQ(got_rows, want_rows) << spec.name << "." << tdef.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetMigrationTest,
                         ::testing::Range<size_t>(0, 4),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return AllDatasets()[info.param]->name;
                         });

TEST(SocialNetworkGen, ShapeAndDeterminism) {
  std::string doc = GenerateSocialNetworkXml(20, 1);
  EXPECT_EQ(doc, GenerateSocialNetworkXml(20, 1));
  hdt::Hdt t = test::ParseXmlOrDie(doc);
  EXPECT_EQ(t.NumElements(), SocialNetworkApproxElements(20, 1));
  auto persons = t.LookupTag("Person");
  ASSERT_TRUE(persons.has_value());
  auto out = t.ChildrenWithTag(t.root(), *persons);
  EXPECT_EQ(out.size(), 20u);
}

}  // namespace
}  // namespace mitra::workload
