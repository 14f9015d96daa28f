#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/strings.h"
#include "workload/corpus.h"
#include "workload/datasets.h"
#include "xml/xml_parser.h"

namespace mitra::xml {
namespace {

// ---------------------------------------------------------------------------
// Reference parser: the recursive-descent parser that allocated a fresh
// attribute vector, decoded string, text-run vector and pending-text
// string per element, kept verbatim (modulo packaging, DecodeEntities
// included) as the oracle for the buffer-reusing parser in xml_parser.cc.
// ParseXml must build the same tree — every node's tag, parent, pos, data
// and flags, and the tag and dictionary orders — or report the same
// Status, and make the same governor checks and byte charges.
namespace reference {

Result<std::string> DecodeEntities(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '&') {
      out.push_back(s[i]);
      continue;
    }
    size_t semi = s.find(';', i);
    if (semi == std::string_view::npos) {
      return Status::ParseError("unterminated entity in '" + std::string(s) +
                                "'");
    }
    std::string_view ent = s.substr(i + 1, semi - i - 1);
    if (ent == "lt") {
      out.push_back('<');
    } else if (ent == "gt") {
      out.push_back('>');
    } else if (ent == "amp") {
      out.push_back('&');
    } else if (ent == "quot") {
      out.push_back('"');
    } else if (ent == "apos") {
      out.push_back('\'');
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
        out.push_back(static_cast<char>(code));
      } else if (code < 0x800) {
        out.push_back(static_cast<char>(0xC0 | (code >> 6)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      } else if (code < 0x10000) {
        out.push_back(static_cast<char>(0xE0 | (code >> 12)));
        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      } else {
        out.push_back(static_cast<char>(0xF0 | (code >> 18)));
        out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      }
    } else {
      return Status::ParseError("unknown entity &" + std::string(ent) + ";");
    }
    i = semi;
  }
  return out;
}

/// Maximum element nesting the recursive-descent parser accepts. Keeps
/// worst-case stack usage a few hundred frames regardless of input size.
constexpr int kMaxNestingDepth = 256;

bool IsNameStartChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}
bool IsNameChar(char c) {
  return IsNameStartChar(c) || std::isdigit(static_cast<unsigned char>(c)) ||
         c == '-' || c == '.';
}

/// Recursive-descent XML parser emitting the HDT encoding into a builder.
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
  void SkipWs() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
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
    if (AtEnd() || !IsNameStartChar(Peek())) {
      return Err("expected a name");
    }
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) Advance();
    return in_.substr(start, pos_ - start);
  }

  Result<std::string> ParseAttrValue() {
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Err("expected quoted value");
    }
    const char quote = Peek();
    Advance();
    size_t start = pos_;
    while (!AtEnd() && Peek() != quote) Advance();
    if (AtEnd()) return Err("unterminated attribute value");
    std::string_view raw = in_.substr(start, pos_ - start);
    Advance();  // closing quote
    return DecodeEntities(raw);
  }

  /// Parses one element; creates the node under `parent` (or the root).
  Status ParseElement(hdt::NodeId parent, int depth = 0) {
    // Recursive descent: bound nesting so hostile input degrades to a
    // ParseError instead of exhausting the stack.
    if (depth > kMaxNestingDepth) return Err("element nesting too deep");
    MITRA_GOV_CHECK(gov_, "xml/parse");
    if (!Consume('<')) return Err("expected '<'");
    MITRA_ASSIGN_OR_RETURN(std::string_view name, ParseName());

    struct Attr {
      std::string_view name;
      std::string value;
    };
    std::vector<Attr> attrs;
    while (true) {
      SkipWs();
      if (AtEnd()) return Err("unterminated start tag <" + std::string(name));
      if (Peek() == '/' || Peek() == '>') break;
      MITRA_ASSIGN_OR_RETURN(std::string_view aname, ParseName());
      SkipWs();
      if (!Consume('=')) return Err("expected '=' after attribute name");
      SkipWs();
      MITRA_ASSIGN_OR_RETURN(std::string avalue, ParseAttrValue());
      attrs.push_back({aname, std::move(avalue)});
    }

    bool self_closing = Consume('/');
    if (!Consume('>')) return Err("expected '>'");

    MITRA_RETURN_IF_ERROR(ChargeNodes(1 + attrs.size()));
    hdt::NodeId node = parent == hdt::kInvalidNode
                           ? tree_.AddRoot(name)
                           : tree_.AddChild(parent, name);
    for (const Attr& a : attrs) tree_.AddAttribute(node, a.name, a.value);
    if (self_closing) return Status::OK();

    // Content: interleave text runs and child elements until </name>.
    std::vector<std::string> text_runs;
    std::string pending_text;
    bool saw_child_element = !attrs.empty();
    auto flush_text = [&]() {
      std::string_view trimmed = TrimWhitespace(pending_text);
      if (!trimmed.empty()) text_runs.emplace_back(trimmed);
      pending_text.clear();
    };

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
          pending_text.append(in_.substr(start, close - start));
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
        // A child element: any buffered text becomes a `text` child run.
        flush_text();
        saw_child_element = true;
        // Emit text runs seen so far in document order before the child.
        MITRA_RETURN_IF_ERROR(EmitTextRuns(node, &text_runs));
        MITRA_RETURN_IF_ERROR(ParseElement(node, depth + 1));
      } else if (Peek() == '&') {
        size_t start = pos_;
        while (!AtEnd() && Peek() != ';') Advance();
        if (AtEnd()) return Err("unterminated entity reference");
        Advance();  // ';'
        MITRA_ASSIGN_OR_RETURN(
            std::string decoded,
            DecodeEntities(in_.substr(start, pos_ - start)));
        pending_text.append(decoded);
      } else {
        // Plain character data up to the next markup or entity.
        const size_t start = pos_;
        while (!AtEnd() && Peek() != '<' && Peek() != '&') Advance();
        pending_text.append(in_.substr(start, pos_ - start));
      }
    }

    flush_text();
    if (!saw_child_element && text_runs.size() == 1) {
      // Pure text content (so no children at all): store it as the
      // element's own data (Fig. 4a).
      tree_.SetLeafData(node, text_runs[0]);
      return Status::OK();
    }
    return EmitTextRuns(node, &text_runs);
  }

  /// Charges `nodes` new tree nodes to the governor.
  Status ChargeNodes(size_t nodes) {
    if (gov_ == nullptr) return Status::OK();
    return gov_->ChargeBytes(nodes * hdt::kBytesPerNode, "alloc/xml-node");
  }

  /// Appends the buffered text runs as `text` children of `node`.
  Status EmitTextRuns(hdt::NodeId node, std::vector<std::string>* runs) {
    MITRA_RETURN_IF_ERROR(ChargeNodes(runs->size()));
    for (const std::string& run : *runs) tree_.AddTextRun(node, run);
    runs->clear();
    return Status::OK();
  }

  std::string_view in_;
  common::Governor* gov_ = nullptr;
  size_t pos_ = 0;
  hdt::HdtBuilder tree_;
};

}  // namespace reference

// ---------------------------------------------------------------------------

/// Empty when the trees are equal, else the first difference.
std::string TreeDiff(const hdt::Hdt& want, const hdt::Hdt& got) {
  if (want.size() != got.size()) {
    return "size " + std::to_string(want.size()) + " vs " +
           std::to_string(got.size());
  }
  if (want.NumTags() != got.NumTags()) return "tag count";
  for (size_t t = 0; t < want.NumTags(); ++t) {
    const auto id = static_cast<hdt::TagId>(t);
    if (want.TagName(id) != got.TagName(id)) {
      return "tag " + std::to_string(t) + " order";
    }
  }
  if (want.DictSize() != got.DictSize()) return "dictionary size";
  for (size_t d = 0; d < want.DictSize(); ++d) {
    const auto id = static_cast<hdt::DataId>(d);
    if (want.DictValue(id) != got.DictValue(id)) {
      return "dictionary entry " + std::to_string(d);
    }
  }
  for (hdt::NodeId n = 0; n < static_cast<hdt::NodeId>(want.size()); ++n) {
    if (want.NodeTagName(n) != got.NodeTagName(n) ||
        want.Parent(n) != got.Parent(n) || want.Pos(n) != got.Pos(n) ||
        want.GetDataId(n) != got.GetDataId(n) ||
        want.Data(n) != got.Data(n) ||
        want.IsAttribute(n) != got.IsAttribute(n) ||
        want.IsTextRun(n) != got.IsTextRun(n)) {
      return "node " + std::to_string(n);
    }
  }
  if (want.AllTagPosPairs() != got.AllTagPosPairs()) return "(tag, pos) pairs";
  return "";
}

/// Both parsers agree on `doc`: the same tree or the same Status.
void ExpectSameParse(const std::string& label, const std::string& doc) {
  const Result<hdt::Hdt> want = reference::Parser(doc).Parse();
  const Result<hdt::Hdt> got = ParseXml(doc);
  ASSERT_EQ(want.ok(), got.ok())
      << label << ": reference " << want.status().ToString() << ", parser "
      << got.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(want.status().ToString(), got.status().ToString()) << label;
    return;
  }
  EXPECT_EQ(TreeDiff(*want, *got), "") << label;
}

/// Both parsers make the same governor calls on `doc` under a byte budget
/// of `max_bytes` (0 = unlimited): same Status, same charged bytes and
/// check count.
void ExpectSameGovernedParse(const std::string& label, const std::string& doc,
                             uint64_t max_bytes) {
  common::ResourceLimits limits;
  limits.max_memory_bytes = max_bytes;
  common::Governor want_gov(limits);
  common::Governor got_gov(limits);
  const Result<hdt::Hdt> want = reference::Parser(doc, &want_gov).Parse();
  XmlParseOptions opts;
  opts.governor = &got_gov;
  const Result<hdt::Hdt> got = ParseXml(doc, opts);
  const std::string at = label + " budget " + std::to_string(max_bytes);
  EXPECT_EQ(want.status().ToString(), got.status().ToString()) << at;
  EXPECT_EQ(want_gov.Usage().bytes, got_gov.Usage().bytes) << at;
  EXPECT_EQ(want_gov.Usage().checks, got_gov.Usage().checks) << at;
  if (want.ok() && got.ok()) {
    EXPECT_EQ(TreeDiff(*want, *got), "") << at;
  }
}

/// Every input, then each cut and XOR-0x20-flipped at k * len / 16, as
/// Golden.ParseErrors does.
void ExpectSameParseWithDamage(const std::string& label,
                               const std::string& doc) {
  ExpectSameParse(label, doc);
  constexpr size_t kOffsets = 16;
  for (size_t k = 1; k < kOffsets && !doc.empty(); ++k) {
    const size_t off = doc.size() * k / kOffsets;
    const std::string at = label + " @" + std::to_string(off);
    ExpectSameParse(at + " cut", doc.substr(0, off));
    std::string flipped = doc;
    flipped[off] = static_cast<char>(flipped[off] ^ 0x20);
    ExpectSameParse(at + " flip", flipped);
  }
}

std::vector<std::pair<std::string, std::string>> DatasetDocuments() {
  std::vector<std::pair<std::string, std::string>> docs;
  for (const workload::DatasetSpec* spec :
       {&workload::Dblp(), &workload::Mondial()}) {
    docs.emplace_back(spec->name + " example", spec->example_document);
    docs.emplace_back(spec->name + " scale 50", spec->generate(50, 7));
  }
  return docs;
}

TEST(XmlParserDifferential, CorpusDocuments) {
  for (const workload::CorpusTask& task : workload::XmlCorpus()) {
    ExpectSameParseWithDamage(task.id, task.document);
    if (!task.generalization_document.empty()) {
      ExpectSameParseWithDamage(task.id + " generalization",
                                task.generalization_document);
    }
  }
}

TEST(XmlParserDifferential, DatasetDocuments) {
  for (const auto& [label, doc] : DatasetDocuments()) {
    ExpectSameParseWithDamage(label, doc);
  }
}

TEST(XmlParserDifferential, FuzzCorpus) {
  int replayed = 0;
  const std::string dir = std::string(MITRA_TEST_SRCDIR) + "/fuzz_corpus/xml";
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::ifstream in(e.path(), std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    ExpectSameParseWithDamage(e.path().filename().string(), ss.str());
    ++replayed;
  }
  EXPECT_GT(replayed, 0);
}

std::string Nested(int depth) {
  std::string doc;
  for (int i = 0; i < depth; ++i) doc += "<d>";
  doc += "x";
  for (int i = 0; i < depth; ++i) doc += "</d>";
  return doc;
}

std::vector<std::string> HandCases() {
  return {
      // An entity attribute followed by a malformed one, and the reverse.
      R"(<a x="&amp;&lt;" y=z/>)",
      R"(<a x="&bogus;" y=z/>)",
      R"(<a x="1&amp;2" y='&#x41;'>t</a>)",
      R"(<a x="&amp)",
      // Text pieces split by a comment, an entity, CDATA and a PI.
      "<r>a<!--x-->b&amp;c<![CDATA[d]]>e<?p?>f</r>",
      "<r> <![CDATA[ only ]]> </r>",
      "<r><![CDATA[]]></r>",
      "<r>&lt;&gt;</r>",
      "<r>&#;</r>",
      "<r>&unknown;</r>",
      "<r>a &b c</r>",
      // \v and \f are whitespace to isspace, in tags and around text.
      "<r\v a='1'\f>\v text \f</r>",
      "<r>\v\f\t\r\n</r>",
      // Mixed content under attributes.
      R"(<r k="v">lead<c>x</c>mid<c/>tail</r>)",
      R"(<r k="v">only text</r>)",
      R"(<r k="v">  </r>)",
      // A non-ASCII byte in a name.
      "<r\xc3\xa9>x</r\xc3\xa9>",
      "<\xc3\xa9/>",
      "<r a\xc3\xa9='1'/>",
      // Names with digits, dots, dashes, colons and underscores.
      "<_a:b-c.d1 e.f-g='h'>x</_a:b-c.d1>",
      // Nesting at and past the limit.
      Nested(256),
      Nested(257),
      Nested(258),
      // Misc.
      "<?xml version='1.0'?><!DOCTYPE r [<!ENTITY x 'y'>]><!--c--><r/>",
      "<r></r> <!--tail--> <?pi?>",
      "<r/>trailing",
      "",
      "   ",
      "<r><a>1</a><a>2</a><b/><a>3</a></r>",
      "<r>x</r >",
      "<r>x</q>",
      "<r a='1' a='2'/>",
  };
}

TEST(XmlParserDifferential, HandCases) {
  const std::vector<std::string> cases = HandCases();
  for (size_t i = 0; i < cases.size(); ++i) {
    ExpectSameParseWithDamage("hand case " + std::to_string(i), cases[i]);
  }
}

TEST(XmlParserDifferential, GovernorTripsAtTheSameCharge) {
  std::vector<std::pair<std::string, std::string>> docs = DatasetDocuments();
  const std::vector<std::string> cases = HandCases();
  for (size_t i = 0; i < cases.size(); ++i) {
    docs.emplace_back("hand case " + std::to_string(i), cases[i]);
  }
  for (const auto& [label, doc] : docs) {
    // Unlimited first, to learn the document's total charge.
    ExpectSameGovernedParse(label, doc, 0);
    common::Governor probe;
    XmlParseOptions opts;
    opts.governor = &probe;
    (void)ParseXml(doc, opts);
    const uint64_t total = probe.Usage().bytes;
    for (uint64_t budget : {total / 3, total / 2, total - 1}) {
      if (budget == 0) continue;
      ExpectSameGovernedParse(label, doc, budget);
    }
  }
}

}  // namespace
}  // namespace mitra::xml
