#include <gtest/gtest.h>

#include "common/csv.h"
#include "hdt/table.h"

namespace mitra {
namespace {

TEST(Csv, SimpleRows) {
  auto rows = ParseCsv("a,b\nc,d\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"c", "d"}));
}

TEST(Csv, NoTrailingNewline) {
  auto rows = ParseCsv("a,b");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
}

TEST(Csv, EmptyInput) {
  auto rows = ParseCsv("");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(Csv, QuotedFields) {
  auto rows = ParseCsv("\"a,b\",\"say \"\"hi\"\"\",\"multi\nline\"\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], "a,b");
  EXPECT_EQ((*rows)[0][1], "say \"hi\"");
  EXPECT_EQ((*rows)[0][2], "multi\nline");
}

TEST(Csv, CrLfTolerated) {
  auto rows = ParseCsv("a,b\r\nc,d\r\n");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][1], "b");
}

TEST(Csv, EmptyFields) {
  auto rows = ParseCsv(",x,\n");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"", "x", ""}));
}

TEST(Csv, Malformed) {
  EXPECT_FALSE(ParseCsv("a\"b,c\n").ok());      // quote mid-field
  EXPECT_FALSE(ParseCsv("\"unterminated").ok());
  EXPECT_FALSE(ParseCsv("\"a\"b,c\n").ok());    // data after closing quote
  EXPECT_FALSE(ParseCsv("\"\"x\n").ok());       // data after empty quoted
  EXPECT_FALSE(ParseCsv("a\rb\n").ok());        // bare CR mid-field
  EXPECT_FALSE(ParseCsv("a,b\r").ok());         // CR without LF at EOF
}

TEST(Csv, QuotedDelimitersAndNewlines) {
  auto rows = ParseCsv("\"a,b\",\"c\nd\",\"e\r\nf\"\n\"x\",y\n");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0],
            (std::vector<std::string>{"a,b", "c\nd", "e\r\nf"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"x", "y"}));
}

TEST(Csv, CrLfRowBreaksMixedWithLf) {
  auto rows = ParseCsv("a,b\r\nc,d\ne,f\r\n");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"c", "d"}));
  EXPECT_EQ((*rows)[2], (std::vector<std::string>{"e", "f"}));
}

TEST(Csv, TrailingEmptyColumns) {
  auto rows = ParseCsv("a,b,\nc,,\n,,\n");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b", ""}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"c", "", ""}));
  EXPECT_EQ((*rows)[2], (std::vector<std::string>{"", "", ""}));
}

TEST(Csv, TrailingEmptyColumnWithoutNewline) {
  auto rows = ParseCsv("a,b,");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b", ""}));
}

TEST(Csv, EmptyQuotedFieldIsAField) {
  auto rows = ParseCsv("\"\",\"\"\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"", ""}));
}

TEST(Csv, QuotedFieldFollowedDirectlyByDelimiter) {
  auto rows = ParseCsv("\"a\",b\n\"c\"\n");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"c"}));
}

TEST(Csv, RoundTripWithCrInField) {
  std::vector<std::vector<std::string>> rows{{"cr\rhere", "crlf\r\nthere"}};
  auto back = ParseCsv(WriteCsv(rows));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, rows);
}

// Each quote-forcing byte at the start, middle and end of a field, an
// empty field, a trailing empty column, a one-field row and a row of no
// fields.
const std::vector<std::vector<std::string>> kExactRows{
    {",a", "a,b", "ab,"},
    {"\"a", "a\"b", "ab\""},
    {"\na", "a\nb", "ab\n"},
    {"\ra", "a\rb", "ab\r"},
    {"x", "", "y"},
    {"trailing", ""},
    {"one"},
    {""},
    {},
    {"\"\"", "\r\n", ",\","},
};
const char kExactBytes[] =
    "\",a\",\"a,b\",\"ab,\"\n"
    "\"\"\"a\",\"a\"\"b\",\"ab\"\"\"\n"
    "\"\na\",\"a\nb\",\"ab\n\"\n"
    "\"\ra\",\"a\rb\",\"ab\r\"\n"
    "x,,y\n"
    "trailing,\n"
    "one\n"
    "\n"
    "\n"
    "\"\"\"\"\"\",\"\r\n\",\",\"\",\"\n";

TEST(Csv, WriteCsvBytesAreExact) {
  EXPECT_EQ(WriteCsv(kExactRows), kExactBytes);
}

TEST(Csv, WriteCsvOfTableRowsIsTheSameBytes) {
  // A table's rows reach the same writer through its arena's row views.
  // Tables are not ragged, so each row is a table of its own; the output
  // is row-local, so the pieces concatenate to the pinned bytes.
  std::string got;
  for (const std::vector<std::string>& row : kExactRows) {
    auto table = hdt::Table::FromRows({row});
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    got += WriteCsv(table->rows());
  }
  EXPECT_EQ(got, kExactBytes);
  // Several rows of one width at once, with a NUL byte kept verbatim.
  using namespace std::string_literals;
  auto table = hdt::Table::FromRows({{"a\0b"s, "x,y"}, {""s, "\"q\""}});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(WriteCsv(table->rows()), "a\0b,\"x,y\"\n,\"\"\"q\"\"\"\n"s);
}

TEST(Csv, RoundTrip) {
  std::vector<std::vector<std::string>> rows{
      {"plain", "with,comma", "with\"quote", "multi\nline", ""},
      {"1", "2", "3", "4", "5"},
  };
  auto back = ParseCsv(WriteCsv(rows));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, rows);
}

}  // namespace
}  // namespace mitra
