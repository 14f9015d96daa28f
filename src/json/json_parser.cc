#include "json/json_parser.h"

#include <algorithm>
#include <cctype>
#include <cstdint>

#include "obs/obs.h"

namespace mitra::json {

namespace {

/// Maximum value nesting the recursive-descent parser accepts. Keeps
/// worst-case stack usage a few hundred frames regardless of input size.
constexpr int kMaxNestingDepth = 256;

/// Recursive-descent RFC 8259 parser emitting the HDT encoding into a
/// builder.
class Parser {
 public:
  explicit Parser(std::string_view in, common::Governor* gov = nullptr)
      : in_(in), gov_(gov) {}

  Result<hdt::Hdt> Parse() {
    MITRA_RETURN_IF_ERROR(ChargeNode());
    hdt::NodeId root = tree_.AddRoot("root");
    SkipWs();
    if (AtEnd()) return Err("empty document");
    char c = Peek();
    if (c == '{') {
      MITRA_RETURN_IF_ERROR(ParseObjectMembers(root, 0));
    } else if (c == '[') {
      MITRA_RETURN_IF_ERROR(ParseArray(root, "item", 0));
    } else {
      std::string buf;
      MITRA_ASSIGN_OR_RETURN(std::string_view lexeme, ParsePrimitive(&buf));
      MITRA_RETURN_IF_ERROR(ChargeNode());
      tree_.AddChild(root, "value", lexeme);
    }
    SkipWs();
    if (!AtEnd()) return Err("trailing content after document");
    return tree_.Finish();
  }

 private:
  bool AtEnd() const { return pos_ >= in_.size(); }
  char Peek() const { return in_[pos_]; }
  void Advance() { ++pos_; }
  bool Consume(char c) {
    if (!AtEnd() && Peek() == c) {
      Advance();
      return true;
    }
    return false;
  }
  void SkipWs() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
                        Peek() == '\r')) {
      Advance();
    }
  }
  /// A parse error at the cursor. Line and column (both from 1) are
  /// counted here, from the byte offset, rather than on every advance.
  Status Err(std::string msg) const {
    const std::string_view done = in_.substr(0, pos_);
    const size_t line_start = done.rfind('\n') + 1;  // npos + 1 == 0
    const size_t line =
        1 + static_cast<size_t>(std::count(done.begin(), done.end(), '\n'));
    const size_t col = 1 + pos_ - line_start;
    return Status::ParseError("JSON " + std::to_string(line) + ":" +
                              std::to_string(col) + ": " + std::move(msg));
  }

  /// Parses the members of an object (including braces) and attaches each
  /// key-value pair under `parent`.
  Status ParseObjectMembers(hdt::NodeId parent, int depth) {
    if (depth > kMaxNestingDepth) return Err("value nesting too deep");
    if (!Consume('{')) return Err("expected '{'");
    SkipWs();
    if (Consume('}')) return Status::OK();
    std::string key_buf;
    while (true) {
      SkipWs();
      MITRA_ASSIGN_OR_RETURN(std::string_view key, ParseString(&key_buf));
      SkipWs();
      if (!Consume(':')) return Err("expected ':' after object key");
      SkipWs();
      MITRA_RETURN_IF_ERROR(ParseValue(parent, key, depth));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Err("expected ',' or '}' in object");
    }
  }

  /// Charges one new tree node to the governor.
  Status ChargeNode() {
    if (gov_ == nullptr) return Status::OK();
    return gov_->ChargeBytes(hdt::kBytesPerNode, "alloc/json-node");
  }

  /// Parses a value appearing under key `key` and encodes it under `parent`.
  /// An array makes no node of its own: its elements are `key` siblings.
  Status ParseValue(hdt::NodeId parent, std::string_view key, int depth) {
    MITRA_GOV_CHECK(gov_, "json/parse");
    if (AtEnd()) return Err("unexpected end of input in value");
    char c = Peek();
    if (c == '[') return ParseArray(parent, key, depth + 1);
    MITRA_RETURN_IF_ERROR(ChargeNode());
    if (c == '{') {
      hdt::NodeId n = tree_.AddChild(parent, key);
      return ParseObjectMembers(n, depth + 1);
    }
    MITRA_ASSIGN_OR_RETURN(std::string_view lexeme,
                           ParsePrimitive(&value_buf_));
    tree_.AddChild(parent, key, lexeme);
    return Status::OK();
  }

  /// Parses an array; element i becomes the i'th sibling tagged `key`
  /// under `parent` (Example 2's encoding).
  Status ParseArray(hdt::NodeId parent, std::string_view key, int depth) {
    if (depth > kMaxNestingDepth) return Err("value nesting too deep");
    if (!Consume('[')) return Err("expected '['");
    SkipWs();
    if (Consume(']')) return Status::OK();
    while (true) {
      SkipWs();
      if (AtEnd()) return Err("unterminated array");
      if (Peek() == '[') {
        // Nested array: wrap in a node and reuse the key for elements.
        MITRA_GOV_CHECK(gov_, "json/parse");
        MITRA_RETURN_IF_ERROR(ChargeNode());
        hdt::NodeId n = tree_.AddChild(parent, key);
        MITRA_RETURN_IF_ERROR(ParseArray(n, key, depth + 1));
      } else {
        // An object or primitive element, encoded like a `key` member.
        MITRA_RETURN_IF_ERROR(ParseValue(parent, key, depth));
      }
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Err("expected ',' or ']' in array");
    }
  }

  /// Parses a string, number, or literal, returning its data string: a
  /// view of the input, or of `*buf` when a string had escapes.
  Result<std::string_view> ParsePrimitive(std::string* buf) {
    char c = Peek();
    if (c == '"') return ParseString(buf);
    if (c == 't') {
      if (ConsumeLit("true")) return std::string_view("true");
      return Err("bad literal");
    }
    if (c == 'f') {
      if (ConsumeLit("false")) return std::string_view("false");
      return Err("bad literal");
    }
    if (c == 'n') {
      if (ConsumeLit("null")) return std::string_view("null");
      return Err("bad literal");
    }
    return ParseNumberLexeme();
  }

  bool ConsumeLit(std::string_view lit) {
    if (in_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Result<std::string_view> ParseNumberLexeme() {
    size_t start = pos_;
    Consume('-');
    if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
      return Err("expected a digit in number");
    }
    if (Peek() == '0') {
      Advance();
    } else {
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        Advance();
      }
    }
    if (Consume('.')) {
      if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Err("expected a digit after decimal point");
      }
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        Advance();
      }
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      Advance();
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) Advance();
      if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Err("expected a digit in exponent");
      }
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        Advance();
      }
    }
    return in_.substr(start, pos_ - start);
  }

  /// Parses a string literal. Returns a view of the input when the string
  /// has no escapes, else of `*buf`, which receives the decoded text.
  Result<std::string_view> ParseString(std::string* buf) {
    if (!Consume('"')) return Err("expected '\"'");
    const size_t start = pos_;
    while (!AtEnd() && Peek() != '"' && Peek() != '\\' &&
           static_cast<unsigned char>(Peek()) >= 0x20) {
      Advance();
    }
    if (!AtEnd() && Peek() == '"') {
      Advance();
      return in_.substr(start, pos_ - 1 - start);
    }
    std::string& out = *buf;
    out.assign(in_.substr(start, pos_ - start));
    while (true) {
      if (AtEnd()) return Err("unterminated string");
      char c = Peek();
      if (c == '"') {
        Advance();
        return std::string_view(out);
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Err("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        Advance();
        continue;
      }
      Advance();  // backslash
      if (AtEnd()) return Err("unterminated escape");
      char e = Peek();
      Advance();
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          MITRA_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4());
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00-\uDFFF.
            if (!ConsumeLit("\\u")) return Err("lone high surrogate");
            MITRA_ASSIGN_OR_RETURN(uint32_t lo, ParseHex4());
            if (lo < 0xDC00 || lo > 0xDFFF) {
              return Err("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Err("lone low surrogate");
          }
          AppendUtf8(cp, &out);
          break;
        }
        default:
          return Err(std::string("invalid escape '\\") + e + "'");
      }
    }
  }

  Result<uint32_t> ParseHex4() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      if (AtEnd()) return Err("unterminated \\u escape");
      char c = Peek();
      int d;
      if (c >= '0' && c <= '9') {
        d = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        d = c - 'a' + 10;
      } else if (c >= 'A' && c <= 'F') {
        d = c - 'A' + 10;
      } else {
        return Err("bad hex digit in \\u escape");
      }
      v = v * 16 + static_cast<uint32_t>(d);
      Advance();
    }
    return v;
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  std::string_view in_;
  common::Governor* gov_ = nullptr;
  size_t pos_ = 0;
  hdt::HdtBuilder tree_;
  /// Decoded text of the current escaped string value; the builder copies
  /// it before the next value is read.
  std::string value_buf_;
};

}  // namespace

namespace {

Result<hdt::Hdt> ParseCounted(std::string_view input,
                              common::Governor* governor) {
  MITRA_SPAN(span, "parse/json");
  auto tree = Parser(input, governor).Parse();
  MITRA_COUNT("parse/json/docs", 1);
  MITRA_COUNT("parse/json/bytes", input.size());
  if (tree.ok()) MITRA_COUNT("parse/json/nodes", tree->NumElements());
  return tree;
}

}  // namespace

Result<hdt::Hdt> ParseJson(std::string_view input) {
  return ParseCounted(input, nullptr);
}

Result<hdt::Hdt> ParseJson(std::string_view input,
                           const JsonParseOptions& opts) {
  return ParseCounted(input, opts.governor);
}

}  // namespace mitra::json
