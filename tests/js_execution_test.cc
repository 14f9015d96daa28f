/// Executes the generated JavaScript programs under Node.js (when
/// available) and checks that they compute exactly the same relation as
/// the in-library executor — validating the MITRA-json plug-in's output
/// end to end, not just structurally. Skipped cleanly when `node` is not
/// installed.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "core/executor.h"
#include "core/synthesizer.h"
#include "json/js_codegen.h"
#include "test_util.h"
#include "workload/corpus.h"

namespace mitra {
namespace {

bool NodeAvailable() {
  return std::system("command -v node > /dev/null 2>&1") == 0;
}

/// Runs `node script` and captures stdout.
std::string RunNode(const std::string& script_path,
                    const std::string& doc_path) {
  std::string cmd = "node " + script_path + " " + doc_path + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  pclose(pipe);
  return out;
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f << content;
}

/// Parses Node's JSON.stringify([[...],[...]]) output into rows. The
/// generated programs emit arrays of arrays of strings/numbers.
std::vector<hdt::Row> ParseRowsJson(const std::string& text) {
  auto tree = json::ParseJson(text);
  std::vector<hdt::Row> rows;
  if (!tree.ok()) return rows;
  // Encoding: top-level array → `item` nodes; inner arrays reuse `item`.
  const hdt::Hdt& t = *tree;
  for (hdt::NodeId row_node : test::Kids(t, t.root())) {
    hdt::Row row;
    for (hdt::NodeId cell : test::Kids(t, row_node)) {
      row.emplace_back(t.Data(cell));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Writes `program`'s generated module, `doc_text` and a main script
/// under `name` into the test temp dir, runs the script under Node and
/// returns its stdout: the migrated rows as JSON.
std::string RunGeneratedJs(const dsl::Program& program,
                           const std::string& doc_text,
                           const std::string& name) {
  std::string dir = ::testing::TempDir();
  std::string prog_path = dir + "/mitra_prog_" + name + ".js";
  std::string doc_path = dir + "/mitra_doc_" + name + ".json";
  std::string main_path = dir + "/mitra_main_" + name + ".js";
  WriteFileOrDie(prog_path, json::GenerateJavaScript(program));
  WriteFileOrDie(doc_path, doc_text);
  WriteFileOrDie(main_path,
                 "const { migrate } = require('" + prog_path +
                     "');\n"
                     "const fs = require('fs');\n"
                     "const doc = JSON.parse(fs.readFileSync(process.argv[2],"
                     " 'utf8'));\n"
                     "console.log(JSON.stringify(migrate(doc).map(r => "
                     "r.map(String))));\n");
  return RunNode(main_path, doc_path);
}

std::vector<hdt::Row> SortedSet(std::vector<hdt::Row> rows) {
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

class JsExecutionTest : public ::testing::TestWithParam<std::string> {};

TEST_P(JsExecutionTest, NodeAgreesWithNativeExecutor) {
  if (!NodeAvailable()) GTEST_SKIP() << "node not installed";
  const workload::CorpusTask* task = nullptr;
  static const auto corpus = workload::JsonCorpus();
  for (const auto& t : corpus) {
    if (t.id == GetParam()) task = &t;
  }
  ASSERT_NE(task, nullptr);

  hdt::Hdt tree = test::ParseJsonOrDie(task->document);
  hdt::Table table = test::MakeTable(task->output);
  auto result = core::LearnTransformation(tree, table);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::string output =
      RunGeneratedJs(result->program, task->document, task->id);
  ASSERT_FALSE(output.empty()) << "node produced no output";
  std::vector<hdt::Row> js_rows = ParseRowsJson(output);

  auto native = core::ExecuteOptimized(tree, result->program);
  ASSERT_TRUE(native.ok());

  EXPECT_EQ(SortedSet(js_rows), SortedSet(native->rows().ToRows()))
      << "generated JS disagrees with native executor\nJS output: "
      << output;
}

INSTANTIATE_TEST_SUITE_P(
    JsonTasks, JsExecutionTest,
    ::testing::Values("json-01-user-names", "json-02-user-ages",
                      "json-04-adults", "json-06-team-members",
                      "json-08-order-cust", "json-13-album-tracks",
                      "json-15-tickets", "json-24-branches",
                      "json-29-second-reviewer", "json-32-reporting",
                      "json-36-trips", "json-44-vm-topology"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(JsCodegen, QuotedConstantsAgreeWithNativeExecutor) {
  if (!NodeAvailable()) GTEST_SKIP() << "node not installed";
  // Predicate constants holding a quote, a backslash or markup must come
  // out as valid string literals in the generated module.
  const std::string doc = R"({"people": [
    {"name": "O'Brien"}, {"name": "AT&T"}, {"name": "say \"hi\""},
    {"name": "back\\slash"}, {"name": "Smith"}]})";
  hdt::Hdt tree = test::ParseJsonOrDie(doc);
  int n = 0;
  for (const char* constant :
       {"O'Brien", "AT&T", "say \"hi\"", "back\\slash"}) {
    dsl::Program p;
    dsl::ColumnExtractor names;
    names.steps.push_back({dsl::ColOp::kDescendants, "name", 0});
    p.columns = {names};
    dsl::Atom atom;
    atom.lhs_col = 0;
    atom.op = dsl::CmpOp::kEq;
    atom.rhs_is_const = true;
    atom.rhs_const = constant;
    p.atoms = {atom};
    p.formula.clauses = {{{0, false}}};

    std::string output =
        RunGeneratedJs(p, doc, "quoted_" + std::to_string(n++));
    ASSERT_FALSE(output.empty()) << "node rejected the module for " << constant;
    auto native = core::ExecuteOptimized(tree, p);
    ASSERT_TRUE(native.ok());
    ASSERT_EQ(native->rows(), std::vector<hdt::Row>{{constant}});
    EXPECT_EQ(SortedSet(ParseRowsJson(output)),
              SortedSet(native->rows().ToRows()))
        << constant << "\nJS output: " << output;
  }
}

}  // namespace
}  // namespace mitra
