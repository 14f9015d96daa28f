#ifndef MITRA_TESTS_TEST_UTIL_H_
#define MITRA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/synthesizer.h"
#include "dsl/eval.h"
#include "hdt/hdt.h"
#include "hdt/table.h"
#include "json/json_parser.h"
#include "xml/xml_parser.h"

namespace mitra::test {

inline hdt::Hdt ParseXmlOrDie(std::string_view xml) {
  auto r = xml::ParseXml(xml);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

inline hdt::Hdt ParseJsonOrDie(std::string_view json) {
  auto r = json::ParseJson(json);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

/// Children of `n` in document order, as a vector.
inline std::vector<hdt::NodeId> Kids(const hdt::Hdt& t, hdt::NodeId n) {
  const hdt::ChildRange kids = t.Children(n);
  return std::vector<hdt::NodeId>(kids.begin(), kids.end());
}

inline hdt::Table MakeTable(std::vector<hdt::Row> rows) {
  auto r = hdt::Table::FromRows(std::move(rows));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

/// Synthesizes from a single example and fails the test on error.
inline core::SynthesisResult SynthesizeOrDie(
    const hdt::Hdt& tree, const hdt::Table& table,
    const core::SynthesisOptions& opts = {}) {
  auto r = core::LearnTransformation(tree, table, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return core::SynthesisResult{};
  return std::move(r).value();
}

/// Evaluates a program and compares with `want` as a row set.
inline void ExpectProgramYields(const hdt::Hdt& tree, const dsl::Program& p,
                                const hdt::Table& want_in) {
  auto got_r = dsl::EvalProgram(tree, p);
  ASSERT_TRUE(got_r.ok()) << got_r.status().ToString();
  hdt::Table got = std::move(got_r).value();
  got.Dedup();
  got.SortRows();
  hdt::Table want = want_in;
  want.Dedup();
  want.SortRows();
  EXPECT_EQ(got.rows(), want.rows())
      << "program: " << dsl::ToString(p) << "\ngot:\n"
      << got.ToString() << "want:\n"
      << want.ToString();
}

}  // namespace mitra::test

#endif  // MITRA_TESTS_TEST_UTIL_H_
