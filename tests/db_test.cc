#include <gtest/gtest.h>

#include "db/migrator.h"
#include "db/schema.h"
#include "test_util.h"

namespace mitra::db {
namespace {

using test::MakeTable;
using test::ParseXmlOrDie;

// A miniature publications dataset: papers with nested authors.
const char* kExampleDoc = R"(
<corpus>
  <paper key="p1"><title>T1</title><year>2001</year>
    <author><name>A</name></author>
    <author><name>B</name></author>
  </paper>
  <paper key="p2"><title>T2</title><year>2002</year>
    <author><name>C</name></author>
  </paper>
</corpus>
)";

const char* kFullDoc = R"(
<corpus>
  <paper key="p1"><title>T1</title><year>2001</year>
    <author><name>A</name></author>
    <author><name>B</name></author>
  </paper>
  <paper key="p2"><title>T2</title><year>2002</year>
    <author><name>C</name></author>
  </paper>
  <paper key="p3"><title>T3</title><year>2003</year>
    <author><name>A</name></author>
    <author><name>D</name></author>
  </paper>
</corpus>
)";

DatabaseSchema PubSchema() {
  DatabaseSchema schema;
  schema.tables.push_back(TableDef{
      "papers",
      {{"pid", ColumnKind::kPrimaryKey, ""},
       {"title", ColumnKind::kData, ""},
       {"year", ColumnKind::kData, ""}}});
  schema.tables.push_back(TableDef{
      "authorship",
      {{"aid", ColumnKind::kPrimaryKey, ""},
       {"name", ColumnKind::kData, ""},
       {"paper", ColumnKind::kForeignKey, "papers"}}});
  return schema;
}

TEST(Schema, ValidatesCorrectSchema) {
  EXPECT_TRUE(PubSchema().Validate().ok());
}

TEST(Schema, RejectsDanglingForeignKey) {
  DatabaseSchema schema;
  schema.tables.push_back(TableDef{
      "t", {{"x", ColumnKind::kData, ""},
            {"fk", ColumnKind::kForeignKey, "missing"}}});
  EXPECT_FALSE(schema.Validate().ok());
}

TEST(Schema, RejectsDuplicateTables) {
  DatabaseSchema schema;
  schema.tables.push_back(TableDef{"t", {{"x", ColumnKind::kData, ""}}});
  schema.tables.push_back(TableDef{"t", {{"y", ColumnKind::kData, ""}}});
  EXPECT_FALSE(schema.Validate().ok());
}

TEST(Schema, RejectsFkToTableWithoutPk) {
  DatabaseSchema schema;
  schema.tables.push_back(TableDef{"a", {{"x", ColumnKind::kData, ""}}});
  schema.tables.push_back(TableDef{
      "b", {{"y", ColumnKind::kData, ""},
            {"fk", ColumnKind::kForeignKey, "a"}}});
  EXPECT_FALSE(schema.Validate().ok());
}

/// A one-table schema whose table is named `name`.
DatabaseSchema SchemaNamed(const std::string& name) {
  DatabaseSchema schema;
  schema.tables.push_back(TableDef{name, {{"x", ColumnKind::kData, ""}}});
  return schema;
}

void ExpectNameRejected(const std::string& name) {
  Status st = SchemaNamed(name).Validate();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
      << "name of " << name.size() << " bytes: " << st.ToString();
}

// Table names become file names under an output directory (merged CSVs,
// shards), so each must be one plain path component.
TEST(Schema, RejectsEmptyTableName) { ExpectNameRejected(""); }

TEST(Schema, RejectsDotTableNames) {
  ExpectNameRejected(".");
  ExpectNameRejected("..");
}

TEST(Schema, RejectsTableNamesWithSlashes) {
  ExpectNameRejected("a/b");
  ExpectNameRejected("../x");
  ExpectNameRejected("../../escaped");
  ExpectNameRejected("/abs");
  ExpectNameRejected("dir/");
}

TEST(Schema, RejectsTableNamesWithControlBytes) {
  ExpectNameRejected(std::string("a\0b", 3));
  ExpectNameRejected(std::string(1, '\0'));
  ExpectNameRejected("a\nb");
  ExpectNameRejected("tab\t");
  ExpectNameRejected("\x1f");
  ExpectNameRejected("del\x7f");
}

TEST(Schema, AcceptsPlainTableNames) {
  for (const char* name : {"people", "a.b", "..a", "a..", "my table",
                           "caf\xc3\xa9", "C:x"}) {
    EXPECT_TRUE(SchemaNamed(name).Validate().ok()) << name;
  }
}

TEST(KeyGen, InjectiveOverNodeTuples) {
  using T = dsl::NodeTuple;
  EXPECT_NE(KeyOf(0, T{1, 2}), KeyOf(0, T{12}));
  EXPECT_NE(KeyOf(0, T{1, 2}), KeyOf(0, T{1, 3}));
  EXPECT_NE(KeyOf(0, T{1, 2}), KeyOf(1, T{1, 2}));
  EXPECT_EQ(KeyOf(2, T{7, 9}), KeyOf(2, T{7, 9}));
  // The bytes: the document index and the ids in decimal, '-'-joined.
  EXPECT_EQ(KeyOf(0, T{12, 40}), "0-12-40");
  EXPECT_EQ(KeyOf(-2147483647 - 1, T{0, 2147483647}),
            "-2147483648-0-2147483647");
  EXPECT_EQ(KeyOf(7, T{}), "7");
}

TEST(Migrator, LearnsAndMigratesWithKeys) {
  hdt::Hdt example = ParseXmlOrDie(kExampleDoc);
  std::map<std::string, hdt::Table> examples;
  examples["papers"] = MakeTable({{"T1", "2001"}, {"T2", "2002"}});
  examples["authorship"] =
      MakeTable({{"A"}, {"B"}, {"C"}});

  Migrator migrator(PubSchema());
  Status learned = migrator.Learn(example, examples);
  ASSERT_TRUE(learned.ok()) << learned.ToString();

  hdt::Hdt full = ParseXmlOrDie(kFullDoc);
  auto db = migrator.Execute(full);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  const hdt::Table& papers = db->tables.at("papers");
  const hdt::Table& authorship = db->tables.at("authorship");
  EXPECT_EQ(papers.NumRows(), 3u);
  EXPECT_EQ(authorship.NumRows(), 5u);

  // Key constraints hold by construction.
  EXPECT_TRUE(CheckDatabaseConstraints(migrator.schema(), *db).ok());

  // The foreign key relates each author row to the right paper: the
  // author "D" must reference the paper titled "T3".
  std::string t3_pid;
  for (const hdt::Row& r : papers.rows()) {
    if (r[1] == "T3") t3_pid = r[0];
  }
  ASSERT_FALSE(t3_pid.empty());
  bool found_d = false;
  for (const hdt::Row& r : authorship.rows()) {
    if (r[1] == "D") {
      found_d = true;
      EXPECT_EQ(r[2], t3_pid);
    }
  }
  EXPECT_TRUE(found_d);
}

TEST(Migrator, MultiDocumentKeysStayUnique) {
  hdt::Hdt example = ParseXmlOrDie(kExampleDoc);
  std::map<std::string, hdt::Table> examples;
  examples["papers"] = MakeTable({{"T1", "2001"}, {"T2", "2002"}});
  examples["authorship"] = MakeTable({{"A"}, {"B"}, {"C"}});

  Migrator migrator(PubSchema());
  ASSERT_TRUE(migrator.Learn(example, examples).ok());

  // One Execute per document, each with its own index; the merged
  // database must still satisfy every key constraint.
  hdt::Hdt doc1 = ParseXmlOrDie(kFullDoc);
  hdt::Hdt doc2 = ParseXmlOrDie(kFullDoc);
  const hdt::Hdt* docs[] = {&doc1, &doc2};
  Database db;
  for (int d = 0; d < 2; ++d) {
    auto part = migrator.Execute(*docs[d], d);
    ASSERT_TRUE(part.ok()) << part.status().ToString();
    for (const auto& [name, table] : part->tables) {
      if (db.tables.count(name) == 0) {
        db.tables.emplace(name, table);
        continue;
      }
      for (const hdt::Row& row : table.rows()) {
        ASSERT_TRUE(db.tables.at(name).AppendRow(row).ok());
      }
    }
  }
  EXPECT_EQ(db.tables.at("papers").NumRows(), 6u);
  EXPECT_TRUE(CheckDatabaseConstraints(migrator.schema(), db).ok());
}

// MigratorOptions are reused across a fleet's documents, so a column cache
// set in `execute` must not carry one document's node ids into the next:
// the Migrator builds its own cache per document and ignores the caller's.
TEST(Migrator, CallerColumnCacheIsIgnored) {
  hdt::Hdt example = ParseXmlOrDie(kExampleDoc);
  std::map<std::string, hdt::Table> examples;
  examples["papers"] = MakeTable({{"T1", "2001"}, {"T2", "2002"}});
  examples["authorship"] = MakeTable({{"A"}, {"B"}, {"C"}});
  Migrator migrator(PubSchema());
  ASSERT_TRUE(migrator.Learn(example, examples).ok());

  hdt::Hdt big = ParseXmlOrDie(kFullDoc);
  hdt::Hdt small = ParseXmlOrDie(kExampleDoc);
  core::ColumnCache cache(big);
  MigratorOptions with_cache;
  with_cache.execute.column_cache = &cache;
  for (const hdt::Hdt* doc : {&big, &small}) {
    auto want = migrator.Execute(*doc);
    auto got = migrator.Execute(*doc, 0, with_cache);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->tables.size(), want->tables.size());
    for (const auto& [name, table] : want->tables) {
      EXPECT_EQ(got->tables.at(name).rows(), table.rows()) << name;
    }
  }
}

TEST(Migrator, MissingExampleIsError) {
  hdt::Hdt example = ParseXmlOrDie(kExampleDoc);
  std::map<std::string, hdt::Table> examples;
  examples["papers"] = MakeTable({{"T1", "2001"}, {"T2", "2002"}});
  Migrator migrator(PubSchema());
  Status learned = migrator.Learn(example, examples);
  ASSERT_FALSE(learned.ok());
  EXPECT_EQ(learned.code(), StatusCode::kInvalidArgument);
}

TEST(Migrator, ArityMismatchIsError) {
  hdt::Hdt example = ParseXmlOrDie(kExampleDoc);
  std::map<std::string, hdt::Table> examples;
  examples["papers"] = MakeTable({{"T1"}});  // schema has 2 data columns
  examples["authorship"] = MakeTable({{"A"}});
  Migrator migrator(PubSchema());
  EXPECT_FALSE(migrator.Learn(example, examples).ok());
}

TEST(Migrator, ExecuteBeforeLearnIsError) {
  Migrator migrator(PubSchema());
  hdt::Hdt doc = ParseXmlOrDie(kFullDoc);
  EXPECT_FALSE(migrator.Execute(doc).ok());
}

TEST(Migrator, SynthesisInfoReported) {
  hdt::Hdt example = ParseXmlOrDie(kExampleDoc);
  std::map<std::string, hdt::Table> examples;
  examples["papers"] = MakeTable({{"T1", "2001"}, {"T2", "2002"}});
  examples["authorship"] = MakeTable({{"A"}, {"B"}, {"C"}});
  Migrator migrator(PubSchema());
  ASSERT_TRUE(migrator.Learn(example, examples).ok());
  ASSERT_EQ(migrator.info().size(), 2u);
  EXPECT_EQ(migrator.info()[0].table, "papers");
  EXPECT_GE(migrator.info()[0].synthesis_seconds, 0.0);
}

TEST(ConstraintChecks, DetectViolations) {
  auto t = MakeTable({{"k1", "x"}, {"k1", "y"}});
  EXPECT_FALSE(CheckPrimaryKeyUnique(t, 0).ok());
  auto ref = MakeTable({{"k1"}});
  auto fk = MakeTable({{"k2"}});
  EXPECT_FALSE(CheckForeignKeyIntegrity(fk, 0, ref, 0).ok());
  EXPECT_TRUE(CheckForeignKeyIntegrity(ref, 0, ref, 0).ok());
}

}  // namespace
}  // namespace mitra::db

namespace mitra::db {
namespace {

TEST(Migrator, UnreachableForeignKeyFailsCleanly) {
  // The FK target lives in an unrelated subtree with no navigable path
  // from the referencing rows: learning must fail with SynthesisFailure,
  // not mis-learn.
  hdt::Hdt example = test::ParseXmlOrDie(R"(
<root>
  <left>
    <item><iname>a</iname></item>
    <item><iname>b</iname></item>
  </left>
  <right>
    <owner><oname>X</oname></owner>
    <owner><oname>Y</oname></owner>
  </right>
</root>)");
  DatabaseSchema schema;
  schema.tables.push_back(TableDef{
      "owners",
      {{"oid", ColumnKind::kPrimaryKey, ""},
       {"oname", ColumnKind::kData, ""}}});
  schema.tables.push_back(TableDef{
      "items",
      {{"iid", ColumnKind::kPrimaryKey, ""},
       {"iname", ColumnKind::kData, ""},
       {"owner", ColumnKind::kForeignKey, "owners"}}});
  std::map<std::string, hdt::Table> examples;
  examples["owners"] = test::MakeTable({{"X"}, {"Y"}});
  examples["items"] = test::MakeTable({{"a"}, {"b"}});
  Migrator migrator(schema);
  Status learned = migrator.Learn(example, examples);
  ASSERT_FALSE(learned.ok());
  EXPECT_EQ(learned.code(), StatusCode::kSynthesisFailure);
  EXPECT_NE(learned.message().find("foreign-key"), std::string::npos);
}

TEST(Migrator, SelfReferencingForeignKey) {
  // Managers are ancestors in the same table: FK into itself.
  hdt::Hdt example = test::ParseXmlOrDie(R"(
<org>
  <unit><uname>root-a</uname>
    <unit><uname>leaf-b</uname></unit>
    <unit><uname>leaf-c</uname></unit>
  </unit>
  <unit><uname>root-d</uname>
    <unit><uname>leaf-e</uname></unit>
  </unit>
</org>)");
  DatabaseSchema schema;
  schema.tables.push_back(TableDef{
      "subunit",
      {{"sid", ColumnKind::kPrimaryKey, ""},
       {"sname", ColumnKind::kData, ""},
       {"parent", ColumnKind::kForeignKey, "unit"}}});
  schema.tables.push_back(TableDef{
      "unit",
      {{"uid", ColumnKind::kPrimaryKey, ""},
       {"uname", ColumnKind::kData, ""}}});
  std::map<std::string, hdt::Table> examples;
  // unit: the top-level units; subunit: the nested ones referencing them.
  examples["unit"] = test::MakeTable({{"root-a"}, {"root-d"}});
  examples["subunit"] =
      test::MakeTable({{"leaf-b"}, {"leaf-c"}, {"leaf-e"}});
  Migrator migrator(schema);
  Status learned = migrator.Learn(example, examples);
  ASSERT_TRUE(learned.ok()) << learned.ToString();
  auto db = migrator.Execute(example);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(CheckDatabaseConstraints(schema, *db).ok());
  // leaf-b must reference root-a's row.
  const hdt::Table& units = db->tables.at("unit");
  const hdt::Table& subs = db->tables.at("subunit");
  std::string root_a_key;
  for (const hdt::Row& r : units.rows()) {
    if (r[1] == "root-a") root_a_key = r[0];
  }
  for (const hdt::Row& r : subs.rows()) {
    if (r[1] == "leaf-b") {
      EXPECT_EQ(r[2], root_a_key);
    }
  }
}

}  // namespace
}  // namespace mitra::db
