#ifndef MITRA_COMMON_JSON_ESCAPE_H_
#define MITRA_COMMON_JSON_ESCAPE_H_

#include <string>
#include <string_view>

/// \file json_escape.h
/// The one JSON string escaper: every writer of JSON text (reports,
/// metrics, traces, the JSON and JS code generators) calls it. Header-only
/// because `obs`, which `common` links, needs it too.

namespace mitra::common {

/// Appends `s` escaped for embedding between double quotes in JSON: `"`
/// and `\` get a backslash, \b \f \n \r \t their short escapes, every
/// other byte below 0x20 a \u00XX escape; all other bytes are copied.
inline void AppendJsonEscaped(std::string* out, std::string_view s) {
  constexpr char kHex[] = "0123456789abcdef";
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += "\\u00";
          *out += kHex[static_cast<unsigned char>(c) >> 4];
          *out += kHex[static_cast<unsigned char>(c) & 0xf];
        } else {
          *out += c;
        }
    }
  }
}

/// `s` escaped for embedding between double quotes in JSON.
inline std::string EscapeJsonString(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  AppendJsonEscaped(&out, s);
  return out;
}

}  // namespace mitra::common

#endif  // MITRA_COMMON_JSON_ESCAPE_H_
