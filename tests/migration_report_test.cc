/// The graceful-degradation migration (ISSUE 4): per-table isolation, the
/// degradation ladder, foreign-key skip cascades, bit-identical healthy
/// tables next to a poisoned one, and the structured MigrationReport /
/// its JSON dump.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "common/thread_pool.h"
#include "db/migrator.h"
#include "db/schema.h"
#include "json/json_parser.h"
#include "test_util.h"
#include "testing/fault_injection.h"

namespace mitra::db {
namespace {

using test::MakeTable;
using test::ParseXmlOrDie;

const char* kDoc = R"(
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

std::map<std::string, hdt::Table> GoodExamples() {
  std::map<std::string, hdt::Table> examples;
  examples["papers"] = MakeTable({{"T1", "2001"}, {"T2", "2002"}});
  examples["authorship"] = MakeTable({{"A"}, {"B"}, {"C"}});
  return examples;
}

TEST(MigrationReport, AllTablesOkOnHealthyInput) {
  hdt::Hdt example = ParseXmlOrDie(kDoc);
  Migrator migrator(PubSchema());
  auto report = migrator.LearnTolerant(example, GoodExamples());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_EQ(report->tables.size(), 2u);
  EXPECT_TRUE(report->complete());
  EXPECT_EQ(report->num_failed(), 0u);
  for (const TableReport& t : report->tables) {
    EXPECT_EQ(t.outcome, TableOutcome::kOk) << t.table;
    EXPECT_EQ(t.rung, 0) << t.table;
    EXPECT_TRUE(t.status.ok()) << t.table << ": " << t.status.ToString();
    EXPECT_TRUE(t.retry_trail.empty()) << t.table;
    EXPECT_GT(t.usage.checks, 0u) << t.table;
  }

  // Tolerant execution matches the strict path bit-for-bit.
  Database tolerant = migrator.ExecuteTolerant(example, 0, &*report);
  Migrator strict(PubSchema());
  ASSERT_TRUE(strict.Learn(example, GoodExamples()).ok());
  auto sdb = strict.Execute(example);
  ASSERT_TRUE(sdb.ok()) << sdb.status().ToString();
  ASSERT_EQ(tolerant.tables.size(), sdb->tables.size());
  for (const auto& [name, table] : sdb->tables) {
    ASSERT_TRUE(tolerant.tables.count(name)) << name;
    EXPECT_EQ(tolerant.tables.at(name).ToString(), table.ToString()) << name;
  }
  EXPECT_GT(report->Find("papers")->rows_emitted, 0u);
}

TEST(MigrationReport, PoisonedTableIsIsolatedAndCascadesOverFks) {
  // "journal" gets example values that do not occur in the document, so
  // its column learner finds an empty language on every ladder rung.
  DatabaseSchema schema = PubSchema();
  schema.tables.push_back(TableDef{
      "journal", {{"jname", ColumnKind::kData, ""}}});
  schema.tables.push_back(TableDef{
      "issue", {{"iid", ColumnKind::kData, ""},
                {"jref", ColumnKind::kForeignKey, "papers"}}});
  // issue's FK needs papers (healthy); journal has no dependents.

  hdt::Hdt example = ParseXmlOrDie(kDoc);
  auto examples = GoodExamples();
  examples["journal"] = MakeTable({{"NOT-IN-DOCUMENT"}});
  examples["issue"] = MakeTable({{"T1"}, {"T2"}});

  Migrator migrator(schema);
  auto report = migrator.LearnTolerant(example, examples);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const TableReport* journal = report->Find("journal");
  ASSERT_NE(journal, nullptr);
  EXPECT_EQ(journal->outcome, TableOutcome::kFailed);
  EXPECT_FALSE(journal->status.ok());
  // One trail entry per failed ladder rung.
  EXPECT_GE(journal->retry_trail.size(), 3u);
  EXPECT_FALSE(report->complete());
  EXPECT_EQ(report->num_failed(), 1u);

  // The healthy tables learned normally despite the poisoned sibling.
  EXPECT_EQ(report->Find("papers")->outcome, TableOutcome::kOk);
  EXPECT_EQ(report->Find("authorship")->outcome, TableOutcome::kOk);
  EXPECT_EQ(report->Find("issue")->outcome, TableOutcome::kOk);

  // Healthy tables come out bit-identical to a migration that never saw
  // the poisoned table.
  Database got = migrator.ExecuteTolerant(example, 0, &*report);
  EXPECT_EQ(got.tables.count("journal"), 0u);
  Migrator clean(PubSchema());
  ASSERT_TRUE(clean.Learn(example, GoodExamples()).ok());
  auto want = clean.Execute(example);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (const char* name : {"papers", "authorship"}) {
    EXPECT_EQ(got.tables.at(name).ToString(), want->tables.at(name).ToString())
        << name;
  }
}

TEST(MigrationReport, FkToFailedTableIsSkipped) {
  DatabaseSchema schema;
  schema.tables.push_back(TableDef{
      "broken",
      {{"bid", ColumnKind::kPrimaryKey, ""},
       {"x", ColumnKind::kData, ""}}});
  schema.tables.push_back(TableDef{
      "dependent",
      {{"name", ColumnKind::kData, ""},
       {"ref", ColumnKind::kForeignKey, "broken"}}});

  hdt::Hdt example = ParseXmlOrDie(kDoc);
  std::map<std::string, hdt::Table> examples;
  examples["broken"] = MakeTable({{"NOT-IN-DOCUMENT"}});
  examples["dependent"] = MakeTable({{"A"}, {"B"}, {"C"}});

  Migrator migrator(schema);
  auto report = migrator.LearnTolerant(example, examples);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->Find("broken")->outcome, TableOutcome::kFailed);
  EXPECT_EQ(report->Find("dependent")->outcome, TableOutcome::kSkipped);
  EXPECT_EQ(report->num_failed(), 2u);

  Database db = migrator.ExecuteTolerant(example, 0, &*report);
  EXPECT_TRUE(db.tables.empty());
}

TEST(MigrationReport, TinyBudgetWalksTheLadderToFailed) {
  DatabaseSchema schema;
  schema.tables.push_back(TableDef{
      "t", {{"a", ColumnKind::kData, ""}, {"b", ColumnKind::kData, ""}}});
  hdt::Hdt example = ParseXmlOrDie(test::PoisonedXmlDocument(30));
  std::map<std::string, hdt::Table> examples;
  examples["t"] = MakeTable({{"0", "1"}, {"1", "2"}, {"2", "0"}});

  MigratorOptions opts;
  opts.table_limits.max_states = 5;  // trips in the first DFA construction
  Migrator migrator(schema);
  auto report = migrator.LearnTolerant(example, examples, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const TableReport* t = report->Find("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->outcome, TableOutcome::kFailed);
  EXPECT_EQ(t->status.code(), StatusCode::kResourceExhausted)
      << t->status.ToString();
  // Rungs 0, 1 and the fallback all ran and were recorded.
  ASSERT_GE(t->retry_trail.size(), 3u);
  EXPECT_EQ(t->retry_trail[0].rfind("rung 0: ", 0), 0u) << t->retry_trail[0];
  EXPECT_EQ(t->retry_trail[1].rfind("rung 1: ", 0), 0u) << t->retry_trail[1];
}

TEST(MigrationReport, ToJsonCarriesTheReport) {
  hdt::Hdt example = ParseXmlOrDie(kDoc);
  Migrator migrator(PubSchema());
  auto report = migrator.LearnTolerant(example, GoodExamples());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  migrator.ExecuteTolerant(example, 0, &*report);

  std::string json = report->ToJson();
  EXPECT_NE(json.find("\"complete\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"num_failed\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"table\":\"papers\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"table\":\"authorship\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"outcome\":\"ok\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"status_code\":\"OK\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rows_emitted\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"usage\""), std::string::npos) << json;
}

TEST(MigrationReport, ToJsonKeepsEveryControlByteOfAStatus) {
  std::string message;
  for (int c = 0; c < 0x20; ++c) message.push_back(static_cast<char>(c));
  message += "\"quoted\" back\\slash";
  MigrationReport report;
  TableReport table;
  table.table = "t";
  table.outcome = TableOutcome::kFailed;
  table.status = Status::SynthesisFailure(message);
  report.tables.push_back(table);

  const std::string json = report.ToJson();
  auto tree = json::ParseJson(json);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString() << "\n" << json;
  auto tag = tree->LookupTag("status");
  ASSERT_TRUE(tag.has_value()) << json;
  auto nodes = tree->DescendantsWithTag(tree->root(), *tag);
  ASSERT_EQ(nodes.size(), 1u) << json;
  EXPECT_EQ(tree->Data(nodes[0]), message) << json;
}

TEST(MigrationReport, OutcomeNames) {
  EXPECT_STREQ(TableOutcomeName(TableOutcome::kOk), "ok");
  EXPECT_STREQ(TableOutcomeName(TableOutcome::kDegraded), "degraded");
  EXPECT_STREQ(TableOutcomeName(TableOutcome::kFallback), "fallback");
  EXPECT_STREQ(TableOutcomeName(TableOutcome::kFailed), "failed");
  EXPECT_STREQ(TableOutcomeName(TableOutcome::kSkipped), "skipped");
}

TEST(MigrationReport, ExecuteFailureIsRecordedPerTable) {
  // Learn at full budget, then execute under a starvation budget: the
  // table fails at execution time, is reported as such, and the database
  // simply lacks it — no exception, no crash.
  hdt::Hdt example = ParseXmlOrDie(kDoc);
  Migrator migrator(PubSchema());
  auto report = migrator.LearnTolerant(example, GoodExamples());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  MigratorOptions starve;
  starve.table_limits.max_rows = 1;
  Database db = migrator.ExecuteTolerant(example, 0, &*report, starve);
  EXPECT_TRUE(db.tables.empty());
  for (const TableReport& t : report->tables) {
    EXPECT_EQ(t.outcome, TableOutcome::kFailed) << t.table;
    EXPECT_EQ(t.status.code(), StatusCode::kResourceExhausted) << t.table;
    // The row budget, charged the table's exact row count.
    EXPECT_EQ(t.status.message(), "row budget exceeded at exec/emit")
        << t.table;
    ASSERT_FALSE(t.retry_trail.empty());
    EXPECT_EQ(t.retry_trail.back().rfind("execute: ", 0), 0u);
  }
}

TEST(MigrationReport, ExecuteUnderStarvingLimitsFailsOnTheFirstTable) {
  // Execute runs each table under its own Governor(table_limits), as the
  // learning entry points do, and fails fast with the first failing
  // table's error in schema order, with or without an execution pool.
  hdt::Hdt example = ParseXmlOrDie(kDoc);
  Migrator migrator(PubSchema());
  ASSERT_TRUE(migrator.Learn(example, GoodExamples()).ok());
  ASSERT_TRUE(migrator.Execute(example).ok());  // unlimited by default

  common::ThreadPool pool(8);
  for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr),
                                &pool}) {
    MigratorOptions starve;
    starve.table_limits.max_rows = 1;
    starve.execute.pool = p;
    auto db = migrator.Execute(example, 0, starve);
    ASSERT_FALSE(db.ok());
    EXPECT_EQ(db.status().code(), StatusCode::kResourceExhausted)
        << db.status().ToString();
    EXPECT_EQ(db.status().message(),
              "execution failed for table papers: row budget exceeded at "
              "exec/emit")
        << db.status().ToString();
  }
}

}  // namespace
}  // namespace mitra::db
