// Golden-output tests: byte-exact snapshots under tests/golden/ of the SQL
// and XSLT code generators, of every synthesized corpus and Table 2
// program, of the predicate universes behind them, of the Table 2
// program-cache keys and of the parsers' error messages. Any intentional
// output change is refreshed with
//
//   UPDATE_GOLDEN=1 ctest -R Golden
//
// which rewrites the files in the source tree; the diff then documents
// the change in review.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "core/column_learner.h"
#include "core/extractor_memo.h"
#include "core/predicate_universe.h"
#include "core/synthesizer.h"
#include "db/migrator.h"
#include "db/sql_codegen.h"
#include "dsl/ast.h"
#include "test_util.h"
#include "workload/corpus.h"
#include "workload/datasets.h"
#include "xml/xslt_codegen.h"

namespace mitra {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(MITRA_TEST_SRCDIR) + "/golden/" + name;
}

void CompareOrUpdateGolden(const std::string& name,
                           const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (std::getenv("UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "updated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — run with UPDATE_GOLDEN=1 to create it";
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(actual, ss.str())
      << "output of " << name
      << " changed; if intentional, refresh with UPDATE_GOLDEN=1";
}

db::DatabaseSchema GoldenSchema() {
  db::DatabaseSchema schema;
  schema.tables.push_back(db::TableDef{
      "papers",
      {{"pid", db::ColumnKind::kPrimaryKey, ""},
       {"title", db::ColumnKind::kData, ""},
       {"year", db::ColumnKind::kData, ""}}});
  schema.tables.push_back(db::TableDef{
      "authors",
      {{"aid", db::ColumnKind::kPrimaryKey, ""},
       {"name", db::ColumnKind::kData, ""},
       {"paper", db::ColumnKind::kForeignKey, "papers"}}});
  return schema;
}

TEST(Golden, SqlSchema) {
  auto sql = db::GenerateSqlSchema(GoldenSchema());
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  CompareOrUpdateGolden("sql_schema.sql", *sql);
}

TEST(Golden, SqlInserts) {
  db::Database database;
  database.tables["papers"] = test::MakeTable({
      {"p1", "Programming-by-Example", "2018"},
      {"p2", "It's a \"title\"", "2019"},
  });
  database.tables["authors"] = test::MakeTable({
      {"a1", "Ann", "p1"},
      {"a2", "Bo", "p1"},
      {"a3", "Cyd", "p2"},
  });
  auto sql = db::GenerateSqlInserts(GoldenSchema(), database);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  CompareOrUpdateGolden("sql_inserts.sql", *sql);
}

TEST(Golden, SqlInsertsSmallBatches) {
  db::Database database;
  database.tables["papers"] = test::MakeTable({
      {"p1", "A", "2001"},
      {"p2", "B", "2002"},
      {"p3", "C", "2003"},
  });
  database.tables["authors"] = test::MakeTable({{"a1", "Ann", "p1"}});
  db::SqlOptions opts;
  opts.insert_batch_rows = 2;
  opts.transaction = false;
  auto sql = db::GenerateSqlInserts(GoldenSchema(), database, opts);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  CompareOrUpdateGolden("sql_inserts_batched.sql", *sql);
}

TEST(Golden, XsltSimpleColumns) {
  dsl::Program p;
  dsl::ColumnExtractor titles;
  titles.steps.push_back({dsl::ColOp::kChildren, "book", 0});
  titles.steps.push_back({dsl::ColOp::kChildren, "title", 0});
  dsl::ColumnExtractor authors;
  authors.steps.push_back({dsl::ColOp::kDescendants, "author", 0});
  p.columns = {titles, authors};
  CompareOrUpdateGolden("xslt_simple.xsl", xml::GenerateXslt(p));
}

TEST(Golden, XsltWithPredicate) {
  dsl::Program p;
  dsl::ColumnExtractor first;
  first.steps.push_back({dsl::ColOp::kPChildren, "row", 0});
  dsl::ColumnExtractor all;
  all.steps.push_back({dsl::ColOp::kChildren, "row", 0});
  p.columns = {first, all};

  dsl::Atom same_parent;
  same_parent.lhs_path.steps.push_back({dsl::NodeOp::kParent, "", 0});
  same_parent.lhs_col = 0;
  same_parent.op = dsl::CmpOp::kEq;
  same_parent.rhs_path.steps.push_back({dsl::NodeOp::kParent, "", 0});
  same_parent.rhs_col = 1;

  dsl::Atom id_not_x;
  id_not_x.lhs_path.steps.push_back({dsl::NodeOp::kChild, "id", 0});
  id_not_x.lhs_col = 1;
  id_not_x.op = dsl::CmpOp::kEq;
  id_not_x.rhs_is_const = true;
  id_not_x.rhs_const = "x";

  p.atoms = {same_parent, id_not_x};
  p.formula.clauses = {{{0, false}, {1, true}}};  // replace default-true
  CompareOrUpdateGolden("xslt_predicate.xsl", xml::GenerateXslt(p));
}

hdt::Hdt ParseDoc(workload::DocFormat format, const std::string& doc) {
  if (format == workload::DocFormat::kXml) return test::ParseXmlOrDie(doc);
  return test::ParseJsonOrDie(doc);
}

// The printed program of every corpus task (or the failure code of the
// tasks meant to fail) and of every table of the four Table 2 schemas.
// Synthesis is deterministic at any thread count, so this pins the whole
// search — DFA, predicate universe, set cover, QM — byte for byte: a
// rewrite of any of them that is meant to keep results must keep this
// file.
TEST(Golden, SynthesizedPrograms) {
  constexpr int kThreads = 4;
  std::string out;
  for (const workload::CorpusTask& task : workload::FullCorpus()) {
    hdt::Hdt tree = ParseDoc(task.format, task.document);
    hdt::Table table = test::MakeTable(task.output);
    core::SynthesisOptions opts;
    opts.time_limit_seconds = 30.0;
    opts.num_threads = kThreads;
    auto result = core::LearnTransformation(tree, table, opts);
    out += "corpus " + task.id + "\n";
    if (result.ok()) {
      out += dsl::ToString(result->program) + "\n";
    } else {
      out += "failed: " +
             std::string(StatusCodeToString(result.status().code())) + "\n";
    }
  }
  for (const workload::DatasetSpec* spec : workload::AllDatasets()) {
    hdt::Hdt example = ParseDoc(spec->format, spec->example_document);
    std::map<std::string, hdt::Table> examples;
    for (const auto& [name, rows] : spec->example_tables) {
      examples[name] = test::MakeTable(rows);
    }
    db::Migrator migrator(spec->schema);
    db::MigratorOptions opts;
    opts.synthesis.num_threads = kThreads;
    Status learned = migrator.Learn(example, examples, opts);
    ASSERT_TRUE(learned.ok()) << spec->name << ": " << learned.ToString();
    for (const db::TableSynthesisInfo& info : migrator.info()) {
      out += "table2 " + spec->name + "." + info.table + "\n" +
             dsl::ToString(info.program) + "\n";
    }
  }
  CompareOrUpdateGolden("programs.txt", out);
}

// The predicate universe Φ (Fig. 10 rules 4-5) of the cheapest table
// extractor ψ — every column's first Phase-1 candidate — built through the
// extractor memo as synthesis builds it: the intermediate row count, the
// atom count and a digest over each printed atom and its truth bits.
std::string DescribeUniverse(const hdt::Hdt& tree, const hdt::Table& table) {
  const core::Examples examples{core::Example{&tree, &table}};
  std::vector<dsl::ColumnExtractor> psi;
  for (size_t j = 0; j < table.NumCols(); ++j) {
    core::ColSymbolPool pool;
    auto cands =
        core::LearnColumnExtractors(examples, static_cast<int>(j), &pool);
    if (!cands.ok()) {
      return "phase1 failed: " +
             std::string(StatusCodeToString(cands.status().code()));
    }
    psi.push_back(cands->front());
  }
  auto rows = dsl::EvalCrossProduct(tree, psi);
  if (!rows.ok()) {
    return "cross product failed: " +
           std::string(StatusCodeToString(rows.status().code()));
  }
  core::ExtractorMemoCache memo;
  auto universe =
      core::ConstructPredicateUniverse(examples, psi, {*rows}, memo);
  if (!universe.ok()) {
    return "universe failed: " +
           std::string(StatusCodeToString(universe.status().code()));
  }
  uint64_t digest = Fnv1a64(nullptr, 0);
  for (size_t a = 0; a < universe->atoms.size(); ++a) {
    const std::string atom = dsl::ToString(universe->atoms[a]);
    digest = HashCombine(Fnv1a64(atom.data(), atom.size(), digest),
                         universe->truth[a].Hash());
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  return "rows=" + std::to_string(universe->num_rows) +
         " atoms=" + std::to_string(universe->atoms.size()) + " digest=" + hex;
}

TEST(Golden, PredicateUniverses) {
  std::string out;
  for (const workload::CorpusTask& task : workload::FullCorpus()) {
    hdt::Hdt tree = ParseDoc(task.format, task.document);
    out += "corpus " + task.id + "\t" +
           DescribeUniverse(tree, test::MakeTable(task.output)) + "\n";
  }
  for (const workload::DatasetSpec* spec : workload::AllDatasets()) {
    hdt::Hdt example = ParseDoc(spec->format, spec->example_document);
    for (const auto& [name, rows] : spec->example_tables) {
      out += "table2 " + spec->name + "." + name + "\t" +
             DescribeUniverse(example, test::MakeTable(rows)) + "\n";
    }
  }
  CompareOrUpdateGolden("universes.txt", out);
}

// The program-cache key of every Table 2 example table. Equal keys mean
// `.mpc` cache entries written by an earlier build still hit, so a change
// to how trees are built must keep node ids, pos and leaf data.
TEST(Golden, ProgramCacheKeys) {
  std::string out;
  for (const workload::DatasetSpec* spec : workload::AllDatasets()) {
    hdt::Hdt example = ParseDoc(spec->format, spec->example_document);
    for (const auto& [name, rows] : spec->example_tables) {
      out += spec->name + "/" + name + "\t" +
             db::ProgramCacheKey(example, test::MakeTable(rows)) + "\n";
    }
  }
  CompareOrUpdateGolden("cache_keys.txt", out);
}

// The exact parse error (or node count) of every corpus document and
// Table 2 example, each truncated at, and with the byte at, a fixed set of
// offsets XOR-ed with 0x20 (which turns '{' into '[', '<' into a control
// character, and flips the case of letters). The documents span several
// lines, so this pins line and column numbers as well as messages.
TEST(Golden, ParseErrors) {
  constexpr size_t kOffsets = 16;
  std::vector<std::pair<std::string, const std::string*>> docs;
  std::vector<workload::DocFormat> formats;
  const std::vector<workload::CorpusTask> corpus = workload::FullCorpus();
  for (const workload::CorpusTask& task : corpus) {
    docs.emplace_back("corpus " + task.id, &task.document);
    formats.push_back(task.format);
  }
  for (const workload::DatasetSpec* spec : workload::AllDatasets()) {
    docs.emplace_back("table2 " + spec->name, &spec->example_document);
    formats.push_back(spec->format);
  }
  std::string out;
  auto record = [&](const std::string& label, workload::DocFormat format,
                    const std::string& text) {
    Result<hdt::Hdt> tree = format == workload::DocFormat::kXml
                                ? xml::ParseXml(text)
                                : json::ParseJson(text);
    out += label + "\t" +
           (tree.ok() ? "ok " + std::to_string(tree->size()) + " nodes"
                      : tree.status().ToString()) +
           "\n";
  };
  for (size_t d = 0; d < docs.size(); ++d) {
    const std::string& doc = *docs[d].second;
    for (size_t k = 1; k < kOffsets; ++k) {
      const size_t off = doc.size() * k / kOffsets;
      const std::string at = docs[d].first + " @" + std::to_string(off);
      record(at + " cut", formats[d], doc.substr(0, off));
      std::string flipped = doc;
      flipped[off] = static_cast<char>(flipped[off] ^ 0x20);
      record(at + " flip", formats[d], flipped);
    }
  }
  CompareOrUpdateGolden("parse_errors.txt", out);
}

}  // namespace
}  // namespace mitra
