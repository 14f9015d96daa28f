#include "html/html_parser.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <vector>

#include "common/strings.h"
#include "xml/xml_parser.h"

namespace mitra::html {

namespace {

std::string Lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool IsVoidElement(const std::string& tag) {
  static const std::set<std::string> kVoid{
      "area", "base",  "br",    "col",   "embed", "hr",  "img", "input",
      "link", "meta",  "param", "source", "track", "wbr"};
  return kVoid.count(tag) > 0;
}

bool IsRawText(const std::string& tag) {
  return tag == "script" || tag == "style";
}

/// HTML implicit-closing rules: opening `incoming` closes `open`.
bool ImplicitlyCloses(const std::string& open, const std::string& incoming) {
  static const std::set<std::string> kBlocks{
      "address", "article", "aside",  "blockquote", "div",  "dl",
      "fieldset", "footer", "form",   "h1",         "h2",   "h3",
      "h4",       "h5",     "h6",     "header",     "hr",   "li",
      "main",     "nav",    "ol",     "p",          "pre",  "section",
      "table",    "ul"};
  if (open == "li" && incoming == "li") return true;
  if (open == "p" && kBlocks.count(incoming)) return true;
  if ((open == "td" || open == "th") &&
      (incoming == "td" || incoming == "th" || incoming == "tr" ||
       incoming == "tbody" || incoming == "thead" || incoming == "tfoot")) {
    return true;
  }
  if (open == "tr" && (incoming == "tr" || incoming == "tbody" ||
                       incoming == "thead" || incoming == "tfoot")) {
    return true;
  }
  if ((open == "thead" || open == "tbody" || open == "tfoot") &&
      (incoming == "tbody" || incoming == "tfoot")) {
    return true;
  }
  if (open == "option" && (incoming == "option" || incoming == "optgroup")) {
    return true;
  }
  if ((open == "dt" || open == "dd") &&
      (incoming == "dt" || incoming == "dd")) {
    return true;
  }
  return false;
}

/// Lenient entity decoding: known/numeric entities decode, unknown ones
/// pass through literally.
std::string DecodeLenient(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '&') {
      out.push_back(s[i]);
      continue;
    }
    size_t semi = s.find(';', i);
    if (semi == std::string_view::npos || semi - i > 12) {
      out.push_back('&');
      continue;
    }
    std::string_view ent = s.substr(i, semi - i + 1);
    if (ent == "&nbsp;") {
      out += "\xc2\xa0";
      i = semi;
      continue;
    }
    auto decoded = xml::DecodeEntities(ent);
    if (decoded.ok()) {
      out += *decoded;
      i = semi;
    } else {
      out.push_back('&');  // unknown entity: keep literally
    }
  }
  return out;
}

/// Intermediate element tree (built with the tag-soup stack discipline,
/// then converted to the HDT encoding).
struct El {
  std::string tag;
  std::vector<std::pair<std::string, std::string>> attrs;
  struct Child {
    bool is_text;
    std::string text;  // when is_text
    size_t el;         // when !is_text
  };
  std::vector<Child> children;
};

class Parser {
 public:
  explicit Parser(std::string_view in) : in_(in) {}

  Result<hdt::Hdt> Parse() {
    arena_.push_back(El{"#document", {}, {}});
    stack_.push_back(0);
    while (!AtEnd()) Step();
    // Encode. Single top-level element: that is the root; otherwise wrap.
    const El& doc = arena_[0];
    size_t element_children = 0;
    size_t only = 0;
    bool has_text = false;
    for (const El::Child& c : doc.children) {
      if (c.is_text) {
        has_text = true;
      } else {
        ++element_children;
        only = c.el;
      }
    }
    hdt::HdtBuilder tree;
    if (element_children == 1 && !has_text) {
      EncodeElement(arena_[only], hdt::kInvalidNode, &tree);
    } else if (doc.children.empty()) {
      return Status::ParseError("HTML document has no content");
    } else {
      El wrapper{"html", {}, doc.children};
      EncodeElement(wrapper, hdt::kInvalidNode, &tree);
    }
    return tree.Finish();
  }

 private:
  bool AtEnd() const { return pos_ >= in_.size(); }
  char Peek() const { return in_[pos_]; }
  bool ConsumeLit(std::string_view lit) {
    if (in_.substr(pos_).substr(0, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }
  void SkipUntil(std::string_view terminator) {
    size_t at = in_.find(terminator, pos_);
    pos_ = at == std::string_view::npos ? in_.size()
                                        : at + terminator.size();
  }

  El& Top() { return arena_[stack_.back()]; }

  void AppendText(std::string_view raw) {
    std::string_view trimmed = TrimWhitespace(raw);
    if (trimmed.empty()) return;
    Top().children.push_back(El::Child{true, DecodeLenient(trimmed), 0});
  }

  void Step() {
    size_t lt = in_.find('<', pos_);
    if (lt == std::string_view::npos) {
      AppendText(in_.substr(pos_));
      pos_ = in_.size();
      return;
    }
    if (lt > pos_) {
      AppendText(in_.substr(pos_, lt - pos_));
      pos_ = lt;
    }
    if (ConsumeLit("<!--")) {
      SkipUntil("-->");
      return;
    }
    if (ConsumeLit("<!")) {  // DOCTYPE etc.
      SkipUntil(">");
      return;
    }
    if (ConsumeLit("<?")) {  // processing instruction
      SkipUntil(">");
      return;
    }
    if (ConsumeLit("</")) {
      HandleEndTag();
      return;
    }
    // "<" not starting a tag: literal text.
    if (pos_ + 1 >= in_.size() ||
        !std::isalpha(static_cast<unsigned char>(in_[pos_ + 1]))) {
      AppendText("<");
      ++pos_;
      return;
    }
    ++pos_;  // consume '<'
    HandleStartTag();
  }

  std::string ReadName() {
    size_t start = pos_;
    while (!AtEnd() &&
           (std::isalnum(static_cast<unsigned char>(Peek())) ||
            Peek() == '-' || Peek() == '_' || Peek() == ':')) {
      ++pos_;
    }
    return Lower(in_.substr(start, pos_ - start));
  }

  void SkipWs() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }

  void HandleStartTag() {
    std::string tag = ReadName();
    El el;
    el.tag = tag;
    // Attributes.
    while (true) {
      SkipWs();
      if (AtEnd() || Peek() == '>' || Peek() == '/') break;
      std::string name = ReadName();
      if (name.empty()) {  // junk character; skip it
        ++pos_;
        continue;
      }
      SkipWs();
      std::string value;
      if (!AtEnd() && Peek() == '=') {
        ++pos_;
        SkipWs();
        if (!AtEnd() && (Peek() == '"' || Peek() == '\'')) {
          char q = Peek();
          ++pos_;
          size_t start = pos_;
          while (!AtEnd() && Peek() != q) ++pos_;
          value = DecodeLenient(in_.substr(start, pos_ - start));
          if (!AtEnd()) ++pos_;
        } else {
          size_t start = pos_;
          while (!AtEnd() && !std::isspace(
                                 static_cast<unsigned char>(Peek())) &&
                 Peek() != '>' && Peek() != '/') {
            ++pos_;
          }
          value = DecodeLenient(in_.substr(start, pos_ - start));
        }
      }
      el.attrs.emplace_back(std::move(name), std::move(value));
    }
    bool self_closed = false;
    if (!AtEnd() && Peek() == '/') {
      self_closed = true;
      ++pos_;
    }
    if (!AtEnd() && Peek() == '>') ++pos_;

    // Implicit closing.
    while (stack_.size() > 1 && ImplicitlyCloses(Top().tag, tag)) {
      stack_.pop_back();
    }

    size_t idx = arena_.size();
    arena_.push_back(std::move(el));
    arena_[stack_.back()].children.push_back(El::Child{false, "", idx});

    if (self_closed || IsVoidElement(tag)) return;
    if (IsRawText(tag)) {
      std::string close = "</" + tag;
      size_t at = in_.find(close, pos_);
      size_t end = at == std::string_view::npos ? in_.size() : at;
      std::string_view raw = TrimWhitespace(in_.substr(pos_, end - pos_));
      if (!raw.empty()) {
        arena_[idx].children.push_back(
            El::Child{true, std::string(raw), 0});
      }
      pos_ = end;
      if (at != std::string_view::npos) SkipUntil(">");
      return;
    }
    stack_.push_back(idx);
  }

  void HandleEndTag() {
    std::string tag = ReadName();
    SkipUntil(">");
    // Pop to the matching open element, if any; ignore stray end tags.
    for (size_t i = stack_.size(); i-- > 1;) {
      if (arena_[stack_[i]].tag == tag) {
        stack_.resize(i);
        return;
      }
    }
  }

  /// Converts the intermediate tree to the HDT encoding shared with the
  /// XML plug-in.
  void EncodeElement(const El& el, hdt::NodeId parent,
                     hdt::HdtBuilder* tree) {
    hdt::NodeId node = parent == hdt::kInvalidNode
                           ? tree->AddRoot(el.tag)
                           : tree->AddChild(parent, el.tag);
    for (const auto& [name, value] : el.attrs) {
      tree->AddAttribute(node, name, value);
    }
    bool has_element_child = false;
    size_t text_runs = 0;
    for (const El::Child& c : el.children) {
      if (c.is_text) ++text_runs;
      else has_element_child = true;
    }
    if (el.attrs.empty() && !has_element_child && text_runs == 1) {
      for (const El::Child& c : el.children) {
        if (c.is_text) tree->SetLeafData(node, c.text);
      }
      return;
    }
    for (const El::Child& c : el.children) {
      if (c.is_text) {
        tree->AddTextRun(node, c.text);
      } else {
        EncodeElement(arena_[c.el], node, tree);
      }
    }
  }

  std::string_view in_;
  size_t pos_ = 0;
  std::vector<El> arena_;
  std::vector<size_t> stack_;
};

}  // namespace

Result<hdt::Hdt> ParseHtml(std::string_view input) {
  if (TrimWhitespace(input).empty()) {
    return Status::ParseError("empty HTML input");
  }
  return Parser(input).Parse();
}

}  // namespace mitra::html
