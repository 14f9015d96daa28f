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

  std::string dir = ::testing::TempDir();
  std::string prog_path = dir + "/mitra_prog_" + task->id + ".js";
  std::string doc_path = dir + "/mitra_doc_" + task->id + ".json";
  std::string driver_path = dir + "/mitra_drv_" + task->id + ".js";
  WriteFileOrDie(prog_path, json::GenerateJavaScript(result->program));
  WriteFileOrDie(doc_path, task->document);
  WriteFileOrDie(driver_path,
                 "const { migrate } = require('" + prog_path +
                     "');\n"
                     "const fs = require('fs');\n"
                     "const doc = JSON.parse(fs.readFileSync(process.argv[2],"
                     " 'utf8'));\n"
                     "console.log(JSON.stringify(migrate(doc).map(r => "
                     "r.map(String))));\n");

  std::string output = RunNode(driver_path, doc_path);
  ASSERT_FALSE(output.empty()) << "node produced no output";
  std::vector<hdt::Row> js_rows = ParseRowsJson(output);

  auto native = core::ExecuteOptimized(tree, result->program);
  ASSERT_TRUE(native.ok());

  auto as_sorted_set = [](std::vector<hdt::Row> rows) {
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    return rows;
  };
  EXPECT_EQ(as_sorted_set(js_rows), as_sorted_set(native->rows()))
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

}  // namespace
}  // namespace mitra
