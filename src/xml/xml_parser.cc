#include "xml/xml_parser.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/strings.h"
#include "obs/obs.h"

namespace mitra::xml {

namespace {

/// Maximum element nesting the recursive-descent parser accepts. Keeps
/// worst-case stack usage a few hundred frames regardless of input size.
constexpr int kMaxNestingDepth = 256;

/// Byte classes. Letters, digits and whitespace are the C locale's
/// isalpha / isdigit / isspace sets (so a non-ASCII byte is none of them);
/// kTextStop marks the bytes that end a run of character data.
enum : uint8_t { kNameStart = 1, kNameChar = 2, kSpace = 4, kTextStop = 8 };

constexpr std::array<uint8_t, 256> MakeByteClasses() {
  std::array<uint8_t, 256> c{};
  for (int b = 'a'; b <= 'z'; ++b) c[b] = kNameStart | kNameChar;
  for (int b = 'A'; b <= 'Z'; ++b) c[b] = kNameStart | kNameChar;
  for (int b = '0'; b <= '9'; ++b) c[b] = kNameChar;
  c['_'] = c[':'] = kNameStart | kNameChar;
  c['-'] = c['.'] = kNameChar;
  for (int b : {' ', '\t', '\n', '\v', '\f', '\r'}) c[b] = kSpace;
  c['<'] = c['&'] = kTextStop;
  return c;
}
constexpr std::array<uint8_t, 256> kByteClass = MakeByteClasses();

bool Is(char c, uint8_t cls) {
  return (kByteClass[static_cast<unsigned char>(c)] & cls) != 0;
}

/// Appends the decoding of `s` (see DecodeEntities) to `*out`.
Status DecodeEntitiesInto(std::string_view s, std::string* out);

/// Recursive-descent XML parser emitting the HDT encoding into a builder.
///
/// Names, attribute values and character data are views of the input
/// wherever the document spells them out literally. Only an attribute
/// value holding an entity, and a run of character data made of more than
/// one piece (text split by a comment, CDATA section, processing
/// instruction or entity), is copied — into a buffer the parser owns and
/// reuses, so a document costs no allocation per element.
class Parser {
 public:
  explicit Parser(std::string_view in, common::Governor* gov = nullptr)
      : in_(in), gov_(gov) {}

  Result<hdt::Hdt> Parse() {
    SkipProlog();
    if (AtEnd()) return Err("document has no root element");
    MITRA_RETURN_IF_ERROR(ParseElement(hdt::kInvalidNode));
    SkipMisc();
    if (!AtEnd()) return Err("trailing content after root element");
    return tree_.Finish();
  }

 private:
  /// One attribute of the start tag being read. `value` is a view of the
  /// input; a value holding an entity is decoded into decoded_ instead, at
  /// [decoded_begin, decoded_end), and `value` is pointed there once the
  /// tag is read (decoded_ may move while it grows).
  struct Attr {
    std::string_view name;
    std::string_view value;
    size_t decoded_begin = std::string::npos;
    size_t decoded_end = 0;
  };

  // --- low-level cursor ---------------------------------------------------
  bool AtEnd() const { return pos_ >= in_.size(); }
  char Peek() const { return in_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < in_.size() ? in_[pos_ + off] : '\0';
  }
  void Advance() { ++pos_; }
  bool Consume(char c) {
    if (!AtEnd() && Peek() == c) {
      Advance();
      return true;
    }
    return false;
  }
  bool ConsumeLit(std::string_view lit) {
    if (in_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }
  /// Advances over bytes of class `cls`.
  void SkipClass(uint8_t cls) {
    while (!AtEnd() && Is(Peek(), cls)) Advance();
  }
  void SkipWs() { SkipClass(kSpace); }
  /// A parse error at the cursor. Line and column (both from 1) are
  /// counted here, from the byte offset, rather than on every advance.
  Status Err(std::string msg) const {
    const std::string_view done = in_.substr(0, pos_);
    const size_t line_start = done.rfind('\n') + 1;  // npos + 1 == 0
    const size_t line =
        1 + static_cast<size_t>(std::count(done.begin(), done.end(), '\n'));
    const size_t col = 1 + pos_ - line_start;
    return Status::ParseError("XML " + std::to_string(line) + ":" +
                              std::to_string(col) + ": " + std::move(msg));
  }

  // --- structure ----------------------------------------------------------

  void SkipMisc() {
    // Whitespace, comments, processing instructions between markup.
    while (true) {
      SkipWs();
      if (ConsumeLit("<!--")) {
        SkipUntil("-->");
      } else if (pos_ + 1 < in_.size() && Peek() == '<' &&
                 PeekAt(1) == '?') {
        SkipUntil("?>");
      } else {
        return;
      }
    }
  }

  void SkipProlog() {
    while (true) {
      SkipWs();
      if (ConsumeLit("<?")) {
        SkipUntil("?>");
      } else if (ConsumeLit("<!--")) {
        SkipUntil("-->");
      } else if (ConsumeLit("<!DOCTYPE")) {
        // Skip to the matching '>' (handles one level of [] internal subset).
        int depth = 0;
        while (!AtEnd()) {
          char c = Peek();
          Advance();
          if (c == '[') ++depth;
          if (c == ']') --depth;
          if (c == '>' && depth <= 0) break;
        }
      } else {
        return;
      }
    }
  }

  void SkipUntil(std::string_view terminator) {
    const size_t at = in_.find(terminator, pos_);
    pos_ = at == std::string_view::npos ? in_.size() : at + terminator.size();
  }

  Result<std::string_view> ParseName() {
    if (AtEnd() || !Is(Peek(), kNameStart)) {
      return Err("expected a name");
    }
    size_t start = pos_;
    SkipClass(kNameChar);
    return in_.substr(start, pos_ - start);
  }

  /// Reads a quoted attribute value into `attr`.
  Status ParseAttrValue(Attr* attr) {
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Err("expected quoted value");
    }
    const char quote = Peek();
    Advance();
    const size_t close = in_.find(quote, pos_);
    if (close == std::string_view::npos) {
      pos_ = in_.size();
      return Err("unterminated attribute value");
    }
    attr->value = in_.substr(pos_, close - pos_);
    pos_ = close + 1;
    if (attr->value.find('&') == std::string_view::npos) return Status::OK();
    attr->decoded_begin = decoded_.size();
    MITRA_RETURN_IF_ERROR(DecodeEntitiesInto(attr->value, &decoded_));
    attr->decoded_end = decoded_.size();
    return Status::OK();
  }

  /// Reads the attributes of the start tag of `name` into attrs_, up to
  /// (not including) its closing '/' or '>'.
  Status ParseAttributes(std::string_view name) {
    attrs_.clear();
    decoded_.clear();
    while (true) {
      SkipWs();
      if (AtEnd()) return Err("unterminated start tag <" + std::string(name));
      if (Peek() == '/' || Peek() == '>') break;
      Attr& attr = attrs_.emplace_back();
      MITRA_ASSIGN_OR_RETURN(attr.name, ParseName());
      SkipWs();
      if (!Consume('=')) return Err("expected '=' after attribute name");
      SkipWs();
      MITRA_RETURN_IF_ERROR(ParseAttrValue(&attr));
    }
    for (Attr& a : attrs_) {
      if (a.decoded_begin == std::string::npos) continue;
      a.value = std::string_view(decoded_).substr(
          a.decoded_begin, a.decoded_end - a.decoded_begin);
    }
    return Status::OK();
  }

  /// Parses one element; creates the node under `parent` (or the root).
  Status ParseElement(hdt::NodeId parent, int depth = 0) {
    // Recursive descent: bound nesting so hostile input degrades to a
    // ParseError instead of exhausting the stack.
    if (depth > kMaxNestingDepth) return Err("element nesting too deep");
    MITRA_GOV_CHECK(gov_, "xml/parse");
    if (!Consume('<')) return Err("expected '<'");
    MITRA_ASSIGN_OR_RETURN(std::string_view name, ParseName());
    MITRA_RETURN_IF_ERROR(ParseAttributes(name));

    bool self_closing = Consume('/');
    if (!Consume('>')) return Err("expected '>'");

    MITRA_RETURN_IF_ERROR(ChargeNodes(1 + attrs_.size()));
    hdt::NodeId node = parent == hdt::kInvalidNode
                           ? tree_.AddRoot(name)
                           : tree_.AddChild(parent, name);
    for (const Attr& a : attrs_) tree_.AddAttribute(node, a.name, a.value);
    if (self_closing) return Status::OK();

    // Content: interleave text runs and child elements until </name>.
    // attrs_ and decoded_ are free again; the run of character data since
    // the last child is built in text_view_ / text_.
    bool saw_child_element = !attrs_.empty();
    while (true) {
      if (AtEnd()) {
        return Err("unterminated element <" + std::string(name) + ">");
      }
      if (Peek() == '<') {
        if (ConsumeLit("<!--")) {
          SkipUntil("-->");
          continue;
        }
        if (ConsumeLit("<![CDATA[")) {
          const size_t start = pos_;
          const size_t close = in_.find("]]>", pos_);
          if (close == std::string_view::npos) {
            pos_ = in_.size();
            return Err("unterminated CDATA section");
          }
          AppendText(in_.substr(start, close - start));
          pos_ = close + 3;
          continue;
        }
        if (PeekAt(1) == '?') {
          SkipUntil("?>");
          continue;
        }
        if (PeekAt(1) == '/') {
          Advance();  // '<'
          Advance();  // '/'
          MITRA_ASSIGN_OR_RETURN(std::string_view close, ParseName());
          SkipWs();
          if (!Consume('>')) return Err("expected '>' in end tag");
          if (close != name) {
            return Err("mismatched end tag </" + std::string(close) +
                       ">, expected </" + std::string(name) + ">");
          }
          break;
        }
        // A child element: the text run so far becomes a `text` child
        // before it, in document order.
        saw_child_element = true;
        MITRA_RETURN_IF_ERROR(EmitTextRun(node, TakeText()));
        MITRA_RETURN_IF_ERROR(ParseElement(node, depth + 1));
      } else if (Peek() == '&') {
        size_t start = pos_;
        while (!AtEnd() && Peek() != ';') Advance();
        if (AtEnd()) return Err("unterminated entity reference");
        Advance();  // ';'
        TextToBuffer();
        MITRA_RETURN_IF_ERROR(
            DecodeEntitiesInto(in_.substr(start, pos_ - start), &text_));
      } else {
        // Plain character data up to the next markup or entity.
        const size_t start = pos_;
        while (!AtEnd() && !Is(Peek(), kTextStop)) Advance();
        AppendText(in_.substr(start, pos_ - start));
      }
    }

    const std::string_view run = TakeText();
    if (!saw_child_element && !run.empty()) {
      // Pure text content (so no children at all): store it as the
      // element's own data (Fig. 4a).
      tree_.SetLeafData(node, run);
      return Status::OK();
    }
    return EmitTextRun(node, run);
  }

  // --- the current run of character data ----------------------------------

  /// Adds a piece of character data to the run. A run of one piece stays
  /// a view of the input.
  void AppendText(std::string_view piece) {
    if (!text_buffered_ && text_view_.empty()) {
      text_view_ = piece;
      return;
    }
    TextToBuffer();
    text_.append(piece);
  }
  /// Moves the run into text_, so that more can be appended to it.
  void TextToBuffer() {
    if (text_buffered_) return;
    text_.assign(text_view_);
    text_buffered_ = true;
  }
  /// The run with surrounding whitespace trimmed, and starts a new one.
  /// The view is valid until the next piece is added.
  std::string_view TakeText() {
    const std::string_view run = text_buffered_ ? text_ : text_view_;
    text_view_ = {};
    text_buffered_ = false;
    return TrimWhitespace(run);
  }

  /// Charges `nodes` new tree nodes to the governor.
  Status ChargeNodes(size_t nodes) {
    if (gov_ == nullptr) return Status::OK();
    return gov_->ChargeBytes(nodes * hdt::kBytesPerNode, "alloc/xml-node");
  }

  /// Appends a non-empty text run as a `text` child of `node`, after
  /// charging it (an empty run charges zero nodes, which still checks the
  /// governor).
  Status EmitTextRun(hdt::NodeId node, std::string_view run) {
    MITRA_RETURN_IF_ERROR(ChargeNodes(run.empty() ? 0 : 1));
    if (!run.empty()) tree_.AddTextRun(node, run);
    return Status::OK();
  }

  std::string_view in_;
  common::Governor* gov_ = nullptr;
  size_t pos_ = 0;
  hdt::HdtBuilder tree_;
  std::vector<Attr> attrs_;
  std::string decoded_;
  std::string_view text_view_;
  std::string text_;
  bool text_buffered_ = false;
};

Result<hdt::Hdt> ParseCounted(std::string_view input,
                              common::Governor* governor) {
  MITRA_SPAN(span, "parse/xml");
  auto tree = Parser(input, governor).Parse();
  MITRA_COUNT("parse/xml/docs", 1);
  MITRA_COUNT("parse/xml/bytes", input.size());
  if (tree.ok()) MITRA_COUNT("parse/xml/nodes", tree->NumElements());
  return tree;
}

}  // namespace

Result<hdt::Hdt> ParseXml(std::string_view input) {
  return ParseCounted(input, nullptr);
}

Result<hdt::Hdt> ParseXml(std::string_view input,
                          const XmlParseOptions& opts) {
  return ParseCounted(input, opts.governor);
}

namespace {

Status DecodeEntitiesInto(std::string_view s, std::string* out) {
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '&') {
      out->push_back(s[i]);
      continue;
    }
    size_t semi = s.find(';', i);
    if (semi == std::string_view::npos) {
      return Status::ParseError("unterminated entity in '" + std::string(s) +
                                "'");
    }
    std::string_view ent = s.substr(i + 1, semi - i - 1);
    if (ent == "lt") {
      out->push_back('<');
    } else if (ent == "gt") {
      out->push_back('>');
    } else if (ent == "amp") {
      out->push_back('&');
    } else if (ent == "quot") {
      out->push_back('"');
    } else if (ent == "apos") {
      out->push_back('\'');
    } else if (!ent.empty() && ent[0] == '#') {
      bool hex = ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X');
      std::string_view digits = ent.substr(hex ? 2 : 1);
      if (digits.empty()) return Status::ParseError("bad numeric entity");
      uint32_t code = 0;
      for (char c : digits) {
        int d;
        if (c >= '0' && c <= '9') {
          d = c - '0';
        } else if (hex && c >= 'a' && c <= 'f') {
          d = c - 'a' + 10;
        } else if (hex && c >= 'A' && c <= 'F') {
          d = c - 'A' + 10;
        } else {
          return Status::ParseError("bad numeric entity &" + std::string(ent) +
                                    ";");
        }
        code = code * (hex ? 16 : 10) + static_cast<uint32_t>(d);
        if (code > 0x10FFFF) {
          return Status::ParseError("numeric entity out of range");
        }
      }
      if (code >= 0xD800 && code <= 0xDFFF) {
        // UTF-16 surrogate halves are not XML Chars; encoding them would
        // produce ill-formed UTF-8 (CESU-8) that cannot round-trip.
        return Status::ParseError("numeric entity &" + std::string(ent) +
                                  "; is a surrogate code point");
      }
      // UTF-8 encode.
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
    } else {
      return Status::ParseError("unknown entity &" + std::string(ent) + ";");
    }
    i = semi;
  }
  return Status::OK();
}

}  // namespace

Result<std::string> DecodeEntities(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  MITRA_RETURN_IF_ERROR(DecodeEntitiesInto(s, &out));
  return out;
}

std::string EscapeText(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '&':
        out += "&amp;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string EscapeAttribute(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '&':
        out += "&amp;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

}  // namespace mitra::xml
