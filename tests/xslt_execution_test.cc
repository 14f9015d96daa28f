/// Executes the generated XSLT stylesheets with the in-repo interpreter
/// and checks they compute the same relation as the native executor —
/// the XML-side counterpart of js_execution_test.cc.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/executor.h"
#include "core/synthesizer.h"
#include "test_util.h"
#include "workload/corpus.h"
#include "xml/xslt_codegen.h"
#include "xml/xslt_interpreter.h"

namespace mitra {
namespace {

std::vector<hdt::Row> SortedSet(std::vector<hdt::Row> rows) {
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

class XsltExecutionTest : public ::testing::TestWithParam<std::string> {};

TEST_P(XsltExecutionTest, InterpreterAgreesWithNativeExecutor) {
  const workload::CorpusTask* task = nullptr;
  static const auto corpus = workload::XmlCorpus();
  for (const auto& t : corpus) {
    if (t.id == GetParam()) task = &t;
  }
  ASSERT_NE(task, nullptr);

  hdt::Hdt tree = test::ParseXmlOrDie(task->document);
  hdt::Table table = test::MakeTable(task->output);
  auto result = core::LearnTransformation(tree, table);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::string stylesheet = xml::GenerateXslt(result->program);
  auto via_xslt = xml::RunXslt(stylesheet, tree);
  ASSERT_TRUE(via_xslt.ok())
      << via_xslt.status().ToString() << "\n"
      << stylesheet;

  auto native = core::ExecuteOptimized(tree, result->program);
  ASSERT_TRUE(native.ok());
  EXPECT_EQ(SortedSet(via_xslt->rows().ToRows()),
            SortedSet(native->rows().ToRows()))
      << "stylesheet:\n"
      << stylesheet;
}

INSTANTIATE_TEST_SUITE_P(
    XmlTasks, XsltExecutionTest,
    ::testing::Values("xml-01-book-titles", "xml-02-title-price",
                      "xml-03-second-author", "xml-04-cheap-books",
                      "xml-05-product-ids", "xml-06-warehouse-items",
                      "xml-07-all-emails", "xml-09-emp-dept",
                      "xml-12-prod-servers", "xml-13-course-roster",
                      "xml-14-open-tasks", "xml-19-order-lines",
                      "xml-21-enrollments", "xml-23-geo3",
                      "xml-31-customer-orders", "xml-38-sheet-cells",
                      "xml-44-geo5"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(XsltInterpreter, MotivatingExampleEndToEnd) {
  hdt::Hdt tree = test::ParseXmlOrDie(R"(
<SocialNetwork>
  <Person id="1"><name>Alice</name>
    <Friendship><Friend fid="2" years="3"/><Friend fid="3" years="5"/></Friendship>
  </Person>
  <Person id="2"><name>Bob</name>
    <Friendship><Friend fid="1" years="3"/></Friendship>
  </Person>
  <Person id="3"><name>Carol</name>
    <Friendship><Friend fid="1" years="5"/></Friendship>
  </Person>
</SocialNetwork>)");
  hdt::Table table = test::MakeTable({{"Alice", "Bob", "3"},
                                      {"Alice", "Carol", "5"},
                                      {"Bob", "Alice", "3"},
                                      {"Carol", "Alice", "5"}});
  auto result = core::LearnTransformation(tree, table);
  ASSERT_TRUE(result.ok());
  auto via_xslt = xml::RunXslt(xml::GenerateXslt(result->program), tree);
  ASSERT_TRUE(via_xslt.ok()) << via_xslt.status().ToString();
  hdt::Table got = std::move(via_xslt).value();
  got.Dedup();
  got.SortRows();
  table.SortRows();
  EXPECT_EQ(got.rows(), table.rows());
}

TEST(XsltInterpreter, QuotedConstantsAgreeWithNativeExecutor) {
  // Predicate constants holding a quote or markup must survive both the
  // XPath literal and the stylesheet's XML.
  hdt::Hdt tree = test::ParseXmlOrDie(R"(<people>
  <p><name>O'Brien</name></p><p><name>AT&amp;T</name></p>
  <p><name>say "hi"</name></p><p><name>a&lt;b</name></p>
  <p><name>Smith</name></p><p><name>a'b"c</name></p><p><name>'x"</name></p>
</people>)");
  for (const char* constant :
       {"O'Brien", "AT&T", "say \"hi\"", "a<b", "a'b\"c", "'x\""}) {
    for (dsl::CmpOp op : {dsl::CmpOp::kEq, dsl::CmpOp::kNe}) {
      dsl::Program p;
      dsl::ColumnExtractor names;
      names.steps.push_back({dsl::ColOp::kDescendants, "name", 0});
      p.columns = {names};
      dsl::Atom atom;
      atom.lhs_col = 0;
      atom.op = op;
      atom.rhs_is_const = true;
      atom.rhs_const = constant;
      p.atoms = {atom};
      p.formula.clauses = {{{0, false}}};

      std::string stylesheet = xml::GenerateXslt(p);
      auto via_xslt = xml::RunXslt(stylesheet, tree);
      ASSERT_TRUE(via_xslt.ok())
          << via_xslt.status().ToString() << "\n" << stylesheet;
      auto native = core::ExecuteOptimized(tree, p);
      ASSERT_TRUE(native.ok());
      EXPECT_EQ(native->NumRows(), op == dsl::CmpOp::kEq ? 1u : 6u);
      EXPECT_EQ(SortedSet(via_xslt->rows().ToRows()),
                SortedSet(native->rows().ToRows()))
          << "stylesheet:\n" << stylesheet;
    }
  }
}

TEST(XsltInterpreter, RejectsUnknownConstructs) {
  auto r = xml::RunXslt("<foo/>", hdt::Hdt());
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace mitra
