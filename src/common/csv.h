#ifndef MITRA_COMMON_CSV_H_
#define MITRA_COMMON_CSV_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

/// \file csv.h
/// Minimal RFC-4180 CSV support for the command-line tool: quoted fields
/// (with embedded commas, quotes, and newlines), CRLF tolerance.

namespace mitra {

/// Parses CSV text into rows of fields. Empty input yields no rows; a
/// trailing newline does not create an empty row.
Result<std::vector<std::vector<std::string>>> ParseCsv(std::string_view text);

namespace csv_internal {

/// The bytes that make a field need quoting (RFC 4180).
inline constexpr std::array<bool, 256> kQuoteTrigger = [] {
  std::array<bool, 256> t{};
  for (unsigned char c : {',', '"', '\n', '\r'}) t[c] = true;
  return t;
}();

/// Whether any of the 8 bytes of `w` forces quoting: a byte equals c
/// exactly where `w ^ (c * 0x01..01)` has a zero byte.
inline bool WordNeedsQuotes(uint64_t w) {
  constexpr uint64_t kOnes = 0x0101010101010101ULL;
  constexpr uint64_t kHighs = 0x8080808080808080ULL;
  auto has_zero = [](uint64_t x) { return (x - kOnes) & ~x & kHighs; };
  return (has_zero(w ^ (kOnes * ',')) | has_zero(w ^ (kOnes * '"')) |
          has_zero(w ^ (kOnes * '\n')) | has_zero(w ^ (kOnes * '\r'))) != 0;
}

/// Whether `f` must be quoted, 8 bytes at a time.
inline bool NeedsQuotes(std::string_view f) {
  const char* p = f.data();
  const size_t n = f.size();
  if (n < 8) {
    for (size_t i = 0; i < n; ++i) {
      if (kQuoteTrigger[static_cast<unsigned char>(p[i])]) return true;
    }
    return false;
  }
  uint64_t w;
  for (size_t i = 0; i + 8 <= n; i += 8) {
    std::memcpy(&w, p + i, 8);
    if (WordNeedsQuotes(w)) return true;
  }
  std::memcpy(&w, p + n - 8, 8);  // the tail, overlapping the last word
  return WordNeedsQuotes(w);
}

/// The bytes `f` takes as a CSV field: quoted fields gain two quotes and
/// a second '"' per '"'.
inline size_t FieldSize(std::string_view f) {
  if (!NeedsQuotes(f)) return f.size();
  const auto quotes = std::count(f.begin(), f.end(), '"');
  return f.size() + 2 + static_cast<size_t>(quotes);
}

/// Writes `f` as a field at `p`, quoted when `quote`; returns the end.
inline char* WriteField(std::string_view f, bool quote, char* p) {
  if (!quote) return std::copy(f.begin(), f.end(), p);
  *p++ = '"';
  for (char c : f) {
    if (c == '"') *p++ = '"';
    *p++ = c;
  }
  *p++ = '"';
  return p;
}

}  // namespace csv_internal

/// Renders rows as CSV, quoting fields when needed: a row of n fields
/// becomes the fields, n - 1 commas and a '\n', so the output is
/// row-local (the batch merge relies on it). `Rows` is a range of rows,
/// each a range of cells that convert to `std::string_view`: a table's
/// `hdt::Table::rows()` (row views over its arena) or a
/// `std::vector<std::vector<std::string>>`, which may be ragged. Both go
/// through this one writer. It sizes the output exactly first, so it
/// allocates once.
template <typename Rows>
std::string WriteCsv(const Rows& rows) {
  // A row of n fields adds n - 1 commas and a newline. `plain` is the size
  // with no field quoted: when the sizes agree, no field needs quotes and
  // the second pass only copies.
  size_t size = 0;
  size_t plain = 0;
  for (const auto& row : rows) {
    const size_t separators = std::max<size_t>(std::size(row), 1);
    size += separators;
    plain += separators;
    for (const auto& f : row) {
      const std::string_view v(f);
      size += csv_internal::FieldSize(v);
      plain += v.size();
    }
  }
  const bool any_quoted = size != plain;
  std::string out(size, '\0');
  char* p = out.data();
  for (const auto& row : rows) {
    bool first = true;
    for (const auto& f : row) {
      if (!first) *p++ = ',';
      first = false;
      const std::string_view v(f);
      p = csv_internal::WriteField(
          v, any_quoted && csv_internal::NeedsQuotes(v), p);
    }
    *p++ = '\n';
  }
  assert(p == out.data() + out.size());
  return out;
}

}  // namespace mitra

#endif  // MITRA_COMMON_CSV_H_
