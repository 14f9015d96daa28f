#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <string>
#include <vector>

#include "hdt/table.h"

namespace mitra::hdt {
namespace {

TEST(Table, FromRows) {
  auto t = Table::FromRows({{"a", "1"}, {"b", "2"}});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumRows(), 2u);
  EXPECT_EQ(t->NumCols(), 2u);
}

TEST(Table, RejectsRaggedRows) {
  auto t = Table::FromRows({{"a", "1"}, {"b"}});
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST(Table, ColumnExtraction) {
  auto t = Table::FromRows({{"a", "1"}, {"b", "2"}, {"a", "3"}});
  EXPECT_EQ(t->Column(0), (std::vector<std::string>{"a", "b", "a"}));
  EXPECT_EQ(t->DistinctColumn(0), (std::vector<std::string>{"a", "b"}));
}

TEST(Table, BagEqualsIgnoresOrder) {
  auto a = Table::FromRows({{"x"}, {"y"}, {"x"}});
  auto b = Table::FromRows({{"y"}, {"x"}, {"x"}});
  auto c = Table::FromRows({{"y"}, {"x"}});
  EXPECT_TRUE(a->BagEquals(*b));
  EXPECT_FALSE(a->BagEquals(*c));
}

TEST(Table, BagSubsetRespectsMultiplicity) {
  auto a = Table::FromRows({{"x"}, {"x"}});
  auto b = Table::FromRows({{"x"}, {"x"}, {"y"}});
  auto c = Table::FromRows({{"x"}, {"y"}});
  EXPECT_TRUE(a->BagSubsetOf(*b));
  EXPECT_FALSE(a->BagSubsetOf(*c));  // only one "x" in c
}

TEST(Table, ContainsRow) {
  auto t = Table::FromRows({{"a", "1"}});
  EXPECT_TRUE(t->ContainsRow({"a", "1"}));
  EXPECT_FALSE(t->ContainsRow({"a", "2"}));
}

TEST(Table, DedupKeepsFirst) {
  auto t = Table::FromRows({{"a"}, {"b"}, {"a"}});
  t->Dedup();
  EXPECT_EQ(t->NumRows(), 2u);
  EXPECT_EQ(t->row(0), (Row{"a"}));
  EXPECT_EQ(t->row(1), (Row{"b"}));
}

TEST(Table, SortRows) {
  auto t = Table::FromRows({{"b"}, {"a"}});
  t->SortRows();
  EXPECT_EQ(t->row(0), (Row{"a"}));
}

TEST(Table, ColumnNamesFixWidth) {
  Table t({"id", "name"});
  EXPECT_EQ(t.NumCols(), 2u);
  EXPECT_TRUE(t.AppendRow({"1", "x"}).ok());
  EXPECT_FALSE(t.AppendRow({"1"}).ok());
}

TEST(Table, ToStringAligns) {
  auto t = Table::FromRows({"id", "name"}, {{"1", "Alice"}});
  std::string s = t->ToString();
  EXPECT_NE(s.find("| id | name  |"), std::string::npos);
  EXPECT_NE(s.find("| 1  | Alice |"), std::string::npos);
}

TEST(Table, EmptyTableWidthFromFirstRow) {
  Table t;
  EXPECT_TRUE(t.AppendRow({"a", "b", "c"}).ok());
  EXPECT_EQ(t.NumCols(), 3u);
}

// --- the byte arena and its views -------------------------------------------

/// Cells no separator could delimit: NUL bytes, empty cells, and every
/// byte CSV quotes.
std::vector<Row> AwkwardRows() {
  using namespace std::string_literals;
  return {
      {"a\0b"s, ""s, "\0"s},
      {""s, ""s, ""s},
      {"\"q\"", "x,y", "cr\rlf\n"},
      {"\r\n", ",", "\"\"\0\"\""s},
  };
}

TEST(TableArena, AwkwardCellsRoundTripThroughViews) {
  const std::vector<Row> rows = AwkwardRows();
  auto t = Table::FromRows(rows);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->NumRows(), rows.size());
  ASSERT_EQ(t->NumCols(), 3u);
  for (size_t r = 0; r < rows.size(); ++r) {
    ASSERT_EQ(t->row(r).size(), 3u);
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(t->row(r)[c], rows[r][c]) << r << "," << c;
      EXPECT_EQ(t->cell(r, c).size(), rows[r][c].size()) << r << "," << c;
    }
    EXPECT_EQ(t->row(r).ToRow(), rows[r]);
  }
  EXPECT_EQ(t->rows(), rows);
  EXPECT_EQ(t->rows().ToRows(), rows);
  EXPECT_EQ(t->Column(2), (std::vector<std::string>{
                              rows[0][2], rows[1][2], rows[2][2], rows[3][2]}));
  // Range-for over owned rows, as callers that need them write it.
  size_t r = 0;
  for (const Row& row : t->rows()) EXPECT_EQ(row, rows[r++]);
  EXPECT_EQ(r, rows.size());
}

TEST(TableArena, ViewEqualityAndConversion) {
  auto a = Table::FromRows({{"x", "1"}, {"y", "2"}, {"x", "1"}});
  auto b = Table::FromRows({{"x", "1"}});
  auto wide = Table::FromRows({{"x", "1", ""}});
  ASSERT_TRUE(a.ok() && b.ok() && wide.ok());
  EXPECT_EQ(a->row(0), a->row(2));
  EXPECT_NE(a->row(0), a->row(1));
  EXPECT_EQ(a->row(0), b->row(0));  // across tables
  EXPECT_NE(a->row(0), wide->row(0));
  EXPECT_EQ(a->row(1), (Row{"y", "2"}));
  EXPECT_NE(a->row(1), (Row{"y"}));
  EXPECT_LT(a->row(0), a->row(1));
  const Row owned = a->row(1);
  EXPECT_EQ(owned, (Row{"y", "2"}));
  EXPECT_NE(a->rows(), b->rows());
  EXPECT_EQ(b->rows(), Table::FromRows({{"x", "1"}})->rows());
  EXPECT_TRUE(Table().rows().empty());
}

TEST(TableArena, AppendsARowViewOfItself) {
  auto t = Table::FromRows({{"first", "1"}, {"second", "2"}});
  ASSERT_TRUE(t.ok());
  // Each append may move the arena the appended view reads from.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(t->AppendRow(t->row(static_cast<size_t>(i) % 2)).ok());
  }
  ASSERT_EQ(t->NumRows(), 202u);
  for (size_t r = 0; r < t->NumRows(); ++r) {
    EXPECT_EQ(t->row(r), t->row(r % 2)) << r;
  }
  EXPECT_EQ(t->row(201), (Row{"second", "2"}));
  auto other = Table::FromRows({{"z", "9"}});
  ASSERT_TRUE(t->AppendRow(other->row(0)).ok());
  EXPECT_EQ(t->row(202), (Row{"z", "9"}));
  auto narrow = Table::FromRows({{"only"}});
  EXPECT_FALSE(t->AppendRow(narrow->row(0)).ok());
  EXPECT_EQ(t->NumRows(), 203u);
}

TEST(TableArena, InPlaceRowsCheckTheirWidth) {
  Table t({"a", "b"});
  t.Reserve(2, 8);
  t.AppendCell("k");
  t.AppendCell(11, [](char* p) { return std::to_chars(p, p + 11, -42).ptr; });
  ASSERT_TRUE(t.EndRow().ok());
  t.AppendCell("lonely");
  const Status short_row = t.EndRow();
  EXPECT_EQ(short_row.code(), StatusCode::kInvalidArgument);
  // The refused row left nothing behind.
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.row(0), (Row{"k", "-42"}));
  t.AppendCell("m");
  t.AppendCell("");
  ASSERT_TRUE(t.EndRow().ok());
  EXPECT_EQ(t.rows(), (std::vector<Row>{{"k", "-42"}, {"m", ""}}));
  t.ShrinkToFit();
  EXPECT_EQ(t.row(1), (Row{"m", ""}));
}

TEST(TableArena, DedupAndSortMatchTheRowVectorOrder) {
  // Prefixes, empty cells, NUL and high bytes: orders where a cell-blind
  // byte comparison of whole rows would differ from the row order.
  std::vector<Row> rows = AwkwardRows();
  for (const Row& r : std::vector<Row>{{"ab", "", "c"},
                                       {"a", "b", "c"},
                                       {"a", "bc", ""},
                                       {"\xff", "a", "a"},
                                       {"a", "b", "c"},
                                       {"", "", ""},
                                       {"\x7f", "", "z"}}) {
    rows.push_back(r);
  }
  for (int i = 0; i < 40; ++i) {
    rows.push_back({std::to_string(i % 7), std::to_string(i % 3), "k"});
  }
  auto sorted = Table::FromRows(rows);
  ASSERT_TRUE(sorted.ok());
  sorted->SortRows();
  std::vector<Row> want = rows;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(sorted->rows(), want);

  auto deduped = Table::FromRows(rows);
  deduped->Dedup();
  std::vector<Row> first_seen;
  for (const Row& r : rows) {
    if (std::find(first_seen.begin(), first_seen.end(), r) ==
        first_seen.end()) {
      first_seen.push_back(r);
    }
  }
  EXPECT_EQ(deduped->rows(), first_seen);
  EXPECT_TRUE(deduped->BagSubsetOf(*sorted));
  EXPECT_FALSE(sorted->BagSubsetOf(*deduped));
  auto reversed = Table::FromRows(std::vector<Row>(rows.rbegin(), rows.rend()));
  EXPECT_TRUE(reversed->BagEquals(*sorted));
  EXPECT_FALSE(deduped->BagEquals(*sorted));
}

TEST(TableArena, ZeroWidthRows) {
  Table t;
  ASSERT_TRUE(t.AppendRow(Row{}).ok());
  ASSERT_TRUE(t.AppendRow(Row{}).ok());
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.row(1), Row{});
  EXPECT_FALSE(t.AppendRow({"x"}).ok());
  t.Dedup();
  EXPECT_EQ(t.NumRows(), 1u);
}

}  // namespace
}  // namespace mitra::hdt
