#include "common/csv.h"

namespace mitra {

Result<std::vector<std::vector<std::string>>> ParseCsv(
    std::string_view text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  bool after_quote = false;  // a quoted field just closed

  auto end_field = [&]() {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
    after_quote = false;
  };
  auto end_row = [&]() {
    end_field();
    rows.push_back(std::move(row));
    row.clear();
  };

  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
          after_quote = true;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        if (field.empty() && !field_started) {
          in_quotes = true;
          field_started = true;
        } else {
          return Status::ParseError(
              "CSV: quote inside unquoted field at offset " +
              std::to_string(i));
        }
        break;
      case ',':
        end_field();
        break;
      case '\r':
        // Only as part of a CRLF line break (RFC 4180); a stray CR would
        // otherwise vanish from the field silently.
        if (i + 1 >= text.size() || text[i + 1] != '\n') {
          return Status::ParseError(
              "CSV: bare CR outside a quoted field at offset " +
              std::to_string(i));
        }
        break;
      case '\n':
        end_row();
        break;
      default:
        if (after_quote) {
          return Status::ParseError(
              "CSV: data after closing quote at offset " +
              std::to_string(i));
        }
        field.push_back(c);
        field_started = true;
    }
  }
  if (in_quotes) return Status::ParseError("CSV: unterminated quoted field");
  if (field_started || !field.empty() || !row.empty()) end_row();
  return rows;
}

}  // namespace mitra
