#include "xml/xslt_interpreter.h"

#include <algorithm>
#include <map>
#include <string_view>
#include <vector>

#include "common/strings.h"
#include "xml/xml_parser.h"

namespace mitra::xml {

namespace {

// ---------------------------------------------------------------------------
// Mini-XPath evaluation
// ---------------------------------------------------------------------------

struct Value {
  enum class Kind { kNodeSet, kString, kBool };
  Kind kind = Kind::kBool;
  std::vector<hdt::NodeId> nodes;
  std::string str;
  bool boolean = false;

  static Value NodeSet(std::vector<hdt::NodeId> n) {
    Value v;
    v.kind = Kind::kNodeSet;
    std::sort(n.begin(), n.end());
    n.erase(std::unique(n.begin(), n.end()), n.end());
    v.nodes = std::move(n);
    return v;
  }
  static Value Str(std::string s) {
    Value v;
    v.kind = Kind::kString;
    v.str = std::move(s);
    return v;
  }
  static Value Bool(bool b) {
    Value v;
    v.kind = Kind::kBool;
    v.boolean = b;
    return v;
  }
  bool Truthy() const {
    switch (kind) {
      case Kind::kNodeSet:
        return !nodes.empty();
      case Kind::kString:
        return !str.empty();
      case Kind::kBool:
        return boolean;
    }
    return false;
  }
};

using VarEnv = std::map<std::string, hdt::NodeId>;

class XPath {
 public:
  XPath(std::string_view expr, const hdt::Hdt& doc, const VarEnv& vars)
      : in_(expr), doc_(doc), vars_(vars) {}

  Result<Value> Evaluate() {
    MITRA_ASSIGN_OR_RETURN(Value v, ParseOr());
    SkipWs();
    if (!AtEnd()) return Err("trailing input in XPath expression");
    return v;
  }

 private:
  bool AtEnd() const { return pos_ >= in_.size(); }
  void SkipWs() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
  }
  bool ConsumeLit(std::string_view lit) {
    SkipWs();
    if (in_.substr(pos_).substr(0, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }
  /// Consumes a keyword only when followed by a non-name character.
  bool ConsumeWord(std::string_view word) {
    SkipWs();
    if (in_.substr(pos_).substr(0, word.size()) != word) return false;
    size_t after = pos_ + word.size();
    if (after < in_.size() &&
        (std::isalnum(static_cast<unsigned char>(in_[after])) ||
         in_[after] == '-' || in_[after] == '_')) {
      return false;
    }
    pos_ = after;
    return true;
  }
  Status Err(std::string msg) const {
    return Status::InvalidArgument("XPath at offset " +
                                   std::to_string(pos_) + " of '" +
                                   std::string(in_) + "': " + std::move(msg));
  }

  Result<Value> ParseOr() {
    MITRA_ASSIGN_OR_RETURN(Value lhs, ParseAnd());
    while (ConsumeWord("or")) {
      MITRA_ASSIGN_OR_RETURN(Value rhs, ParseAnd());
      lhs = Value::Bool(lhs.Truthy() || rhs.Truthy());
    }
    return lhs;
  }

  Result<Value> ParseAnd() {
    MITRA_ASSIGN_OR_RETURN(Value lhs, ParseCmp());
    while (ConsumeWord("and")) {
      MITRA_ASSIGN_OR_RETURN(Value rhs, ParseCmp());
      lhs = Value::Bool(lhs.Truthy() && rhs.Truthy());
    }
    return lhs;
  }

  Result<Value> ParseCmp() {
    MITRA_ASSIGN_OR_RETURN(Value lhs, ParseUnion());
    SkipWs();
    const char* op = nullptr;
    for (const char* candidate : {"!=", "<=", ">=", "=", "<", ">"}) {
      if (ConsumeLit(candidate)) {
        op = candidate;
        break;
      }
    }
    if (op == nullptr) return lhs;
    MITRA_ASSIGN_OR_RETURN(Value rhs, ParseUnion());
    return Compare(lhs, std::string_view(op), rhs);
  }

  Result<Value> ParseUnion() {
    MITRA_ASSIGN_OR_RETURN(Value lhs, ParsePrimary());
    while (true) {
      SkipWs();
      if (!ConsumeLit("|")) return lhs;
      MITRA_ASSIGN_OR_RETURN(Value rhs, ParsePrimary());
      if (lhs.kind != Value::Kind::kNodeSet ||
          rhs.kind != Value::Kind::kNodeSet) {
        return Err("union of non-node-sets");
      }
      std::vector<hdt::NodeId> merged = lhs.nodes;
      merged.insert(merged.end(), rhs.nodes.begin(), rhs.nodes.end());
      lhs = Value::NodeSet(std::move(merged));
    }
  }

  Result<Value> ParsePrimary() {
    SkipWs();
    if (ConsumeLit("not(")) {
      MITRA_ASSIGN_OR_RETURN(Value inner, ParseOr());
      if (!ConsumeLit(")")) return Err("expected ')' after not(");
      return Value::Bool(!inner.Truthy());
    }
    if (ConsumeLit("generate-id(")) {
      MITRA_ASSIGN_OR_RETURN(Value inner, ParseOr());
      if (!ConsumeLit(")")) return Err("expected ')' after generate-id(");
      if (inner.kind != Value::Kind::kNodeSet) {
        return Err("generate-id over non-node-set");
      }
      // First node in document order (ids are preorder).
      if (inner.nodes.empty()) return Value::Str("");
      return Value::Str("id" + std::to_string(inner.nodes.front()));
    }
    if (ConsumeLit("concat(")) {
      // XPath 1.0 §4.2: the concatenation of two or more arguments'
      // string values.
      std::string out;
      size_t args = 0;
      do {
        MITRA_ASSIGN_OR_RETURN(Value arg, ParseOr());
        out += StringOf(arg);
        ++args;
      } while (ConsumeLit(","));
      if (!ConsumeLit(")")) return Err("expected ')' after concat(");
      if (args < 2) return Err("concat() needs at least two arguments");
      return Value::Str(std::move(out));
    }
    if (!AtEnd() && (in_[pos_] == '\'' || in_[pos_] == '"')) {
      const char quote = in_[pos_++];
      size_t start = pos_;
      while (!AtEnd() && in_[pos_] != quote) ++pos_;
      if (AtEnd()) return Err("unterminated string literal");
      Value v = Value::Str(std::string(in_.substr(start, pos_ - start)));
      ++pos_;
      return v;
    }
    if (!AtEnd() && (std::isdigit(static_cast<unsigned char>(in_[pos_])) ||
                     in_[pos_] == '-')) {
      size_t start = pos_;
      if (in_[pos_] == '-') ++pos_;
      while (!AtEnd() &&
             (std::isdigit(static_cast<unsigned char>(in_[pos_])) ||
              in_[pos_] == '.')) {
        ++pos_;
      }
      return Value::Str(std::string(in_.substr(start, pos_ - start)));
    }
    if (ConsumeLit("(")) {
      MITRA_ASSIGN_OR_RETURN(Value inner, ParseOr());
      if (!ConsumeLit(")")) return Err("expected ')'");
      return inner;
    }
    return ParsePath();
  }

  Result<Value> ParsePath() {
    SkipWs();
    std::vector<hdt::NodeId> current;
    if (ConsumeLit("$")) {
      std::string name = ReadName();
      auto it = vars_.find(name);
      if (it == vars_.end()) return Err("unbound variable $" + name);
      current = {it->second};
    } else if (ConsumeLit("/*")) {
      current = {doc_.root()};
    } else if (ConsumeLit(".")) {
      // "." would need a context node; the generator never emits it in
      // tests (only in xsl:variable select, handled by the walker).
      return Err("bare '.' not supported in expressions");
    } else {
      return Err("expected a path");
    }
    while (true) {
      size_t before = pos_;
      if (!ConsumeLit("/")) break;
      auto step = ApplyStep(&current);
      if (!step.ok()) {
        pos_ = before;  // not a step (e.g. end of operand)
        break;
      }
    }
    return Value::NodeSet(std::move(current));
  }

  std::string ReadName() {
    size_t start = pos_;
    while (!AtEnd()) {
      char c = in_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
          c == '_' || c == '.') {
        ++pos_;
      } else {
        break;
      }
    }
    return std::string(in_.substr(start, pos_ - start));
  }

  Result<int> ReadIndexSuffix() {
    // Optional "[k]"; returns k or 0 when absent.
    if (!AtEnd() && in_[pos_] == '[') {
      ++pos_;
      size_t start = pos_;
      while (!AtEnd() && in_[pos_] != ']') ++pos_;
      if (AtEnd()) return Err("unterminated [index]");
      int k = std::stoi(std::string(in_.substr(start, pos_ - start)));
      ++pos_;
      return k;
    }
    return 0;
  }

  Status ApplyStep(std::vector<hdt::NodeId>* current) {
    std::vector<hdt::NodeId> next;
    if (ConsumeLit("..")) {
      for (hdt::NodeId n : *current) {
        hdt::NodeId p = doc_.Parent(n);
        if (p != hdt::kInvalidNode) next.push_back(p);
      }
      *current = std::move(next);
      return Status::OK();
    }
    if (ConsumeLit("@")) {
      std::string name = ReadName();
      if (name.empty()) return Err("expected attribute name after @");
      auto tag = doc_.LookupTag(name);
      if (tag) {
        for (hdt::NodeId n : *current) {
          // The attribute axis matches only attribute-encoded children.
          for (hdt::NodeId k : doc_.ChildrenWithTag(n, *tag)) {
            if (doc_.IsAttribute(k)) next.push_back(k);
          }
        }
      }
      *current = std::move(next);
      return Status::OK();
    }
    if (ConsumeLit("descendant-or-self::*")) {
      for (hdt::NodeId n : *current) {
        if (!doc_.IsAttribute(n)) next.push_back(n);
        for (hdt::TagId t : doc_.AllTags()) {
          for (hdt::NodeId d : doc_.DescendantsWithTag(n, t)) {
            if (!doc_.IsAttribute(d)) next.push_back(d);
          }
        }
      }
      *current = std::move(next);
      return Status::OK();
    }
    if (ConsumeLit("descendant::")) {
      std::string name;
      if (ConsumeLit("text()")) {
        name = "text";
      } else {
        name = ReadName();
        if (name.empty()) return Err("expected name after descendant::");
      }
      auto tag = doc_.LookupTag(name);
      if (tag) {
        for (hdt::NodeId n : *current) {
          for (hdt::NodeId d : doc_.DescendantsWithTag(n, *tag)) {
            if (!doc_.IsAttribute(d)) next.push_back(d);
          }
        }
      }
      *current = std::move(next);
      return Status::OK();
    }
    std::string name;
    if (ConsumeLit("text()")) {
      name = "text";
    } else {
      name = ReadName();
      if (name.empty()) return Err("expected a step");
    }
    MITRA_ASSIGN_OR_RETURN(int k, ReadIndexSuffix());
    auto tag = doc_.LookupTag(name);
    if (tag) {
      for (hdt::NodeId n : *current) {
        // The child axis matches element children only. The positional
        // form indexes among element children with this tag.
        int at = 0;
        for (hdt::NodeId c : doc_.ChildrenWithTag(n, *tag)) {
          if (doc_.IsAttribute(c)) continue;
          ++at;
          if (k > 0) {
            if (at == k) {
              next.push_back(c);
              break;
            }
          } else {
            next.push_back(c);
          }
        }
      }
    }
    *current = std::move(next);
    return Status::OK();
  }

  /// XPath 1.0 string-value: a node's own data, or the concatenation of
  /// its descendants' data in document order for internal nodes.
  std::string NodeString(hdt::NodeId n) const {
    if (doc_.HasData(n)) return std::string(doc_.Data(n));
    // Node ids are preorder ranks: the descendants in document order are
    // the ids inside the subtree's interval.
    std::string out;
    for (hdt::NodeId d = n + 1; d < doc_.SubtreeEnd(n); ++d) {
      if (doc_.HasData(d)) out += doc_.Data(d);
    }
    return out;
  }

  /// XPath 1.0 string(): a node-set's first node's string-value ("" when
  /// empty), a boolean's "true" / "false", a string itself.
  std::string StringOf(const Value& v) const {
    switch (v.kind) {
      case Value::Kind::kNodeSet:
        return v.nodes.empty() ? "" : NodeString(v.nodes.front());
      case Value::Kind::kString:
        return v.str;
      case Value::Kind::kBool:
        return v.boolean ? "true" : "false";
    }
    return "";
  }

  Result<Value> Compare(const Value& lhs, std::string_view op,
                        const Value& rhs) {
    auto holds = [&](int cmp) {
      if (op == "=") return cmp == 0;
      if (op == "!=") return cmp != 0;
      if (op == "<") return cmp < 0;
      if (op == "<=") return cmp <= 0;
      if (op == ">") return cmp > 0;
      return cmp >= 0;  // ">="
    };
    auto strings_of = [&](const Value& v) {
      std::vector<std::string> out;
      if (v.kind == Value::Kind::kNodeSet) {
        for (hdt::NodeId n : v.nodes) out.push_back(NodeString(n));
      } else {
        out.push_back(v.str);
      }
      return out;
    };
    // Existential node-set semantics (XPath 1.0).
    for (const std::string& a : strings_of(lhs)) {
      for (const std::string& b : strings_of(rhs)) {
        if (holds(CompareData(a, b))) return Value::Bool(true);
      }
    }
    return Value::Bool(false);
  }

  std::string_view in_;
  size_t pos_ = 0;
  const hdt::Hdt& doc_;
  const VarEnv& vars_;
};

// ---------------------------------------------------------------------------
// Template walking
// ---------------------------------------------------------------------------

class Interpreter {
 public:
  Interpreter(const hdt::Hdt& sheet, const hdt::Hdt& doc)
      : sheet_(sheet), doc_(doc) {}

  Result<hdt::Table> Run() {
    hdt::NodeId tmpl = FindByTag(sheet_.root(), "xsl:template");
    if (tmpl == hdt::kInvalidNode) {
      return Status::InvalidArgument("stylesheet has no xsl:template");
    }
    VarEnv vars;
    MITRA_RETURN_IF_ERROR(Walk(tmpl, &vars));
    hdt::Table out;
    for (hdt::Row& r : rows_) {
      MITRA_RETURN_IF_ERROR(out.AppendRow(std::move(r)));
    }
    return out;
  }

 private:
  hdt::NodeId FindByTag(hdt::NodeId from, std::string_view tag) const {
    auto id = sheet_.LookupTag(tag);
    if (!id) return hdt::kInvalidNode;
    if (sheet_.Tag(from) == *id) return from;
    auto found = sheet_.DescendantsWithTag(from, *id);
    return found.empty() ? hdt::kInvalidNode : found.front();
  }

  /// Reads an attribute of a stylesheet element (encoded as leaf child).
  std::string Attr(hdt::NodeId el, std::string_view name) const {
    auto id = sheet_.LookupTag(name);
    if (!id) return "";
    hdt::NodeId c = sheet_.ChildWithTagPos(el, *id, 0);
    return c == hdt::kInvalidNode ? "" : std::string(sheet_.Data(c));
  }

  Status Walk(hdt::NodeId el, VarEnv* vars) {
    for (hdt::NodeId child : sheet_.Children(el)) {
      const std::string_view tag = sheet_.NodeTagName(child);
      if (tag == "xsl:for-each") {
        std::string select = Attr(child, "select");
        MITRA_ASSIGN_OR_RETURN(Value v,
                               XPath(select, doc_, *vars).Evaluate());
        if (v.kind != Value::Kind::kNodeSet) {
          return Status::InvalidArgument("for-each select is not a node set");
        }
        for (hdt::NodeId n : v.nodes) {
          context_ = n;
          MITRA_RETURN_IF_ERROR(Walk(child, vars));
        }
      } else if (tag == "xsl:variable") {
        std::string name = Attr(child, "name");
        std::string select = Attr(child, "select");
        if (select != ".") {
          return Status::InvalidArgument(
              "only select=\".\" variables are generated");
        }
        (*vars)[name] = context_;
      } else if (tag == "xsl:if") {
        std::string test = Attr(child, "test");
        MITRA_ASSIGN_OR_RETURN(Value v, XPath(test, doc_, *vars).Evaluate());
        if (v.Truthy()) {
          MITRA_RETURN_IF_ERROR(Walk(child, vars));
        }
      } else if (tag == "row") {
        hdt::Row row;
        for (hdt::NodeId col : sheet_.Children(child)) {
          if (sheet_.NodeTagName(col) != "col") continue;
          hdt::NodeId vo = FindByTag(col, "xsl:value-of");
          if (vo == hdt::kInvalidNode) {
            return Status::InvalidArgument("col without xsl:value-of");
          }
          std::string select = Attr(vo, "select");
          MITRA_ASSIGN_OR_RETURN(Value v,
                                 XPath(select, doc_, *vars).Evaluate());
          if (v.kind == Value::Kind::kNodeSet) {
            row.push_back(v.nodes.empty()
                              ? std::string()
                              : std::string(doc_.Data(v.nodes.front())));
          } else {
            row.push_back(v.str);
          }
        }
        rows_.push_back(std::move(row));
      } else if (tag == "table" || tag == "select" || tag == "name" ||
                 tag == "test" || tag == "match") {
        // `table` wrapper: recurse; attribute-encoded leaves: skip.
        if (tag == "table") {
          MITRA_RETURN_IF_ERROR(Walk(child, vars));
        }
      } else {
        // Unknown literal element: recurse conservatively.
        MITRA_RETURN_IF_ERROR(Walk(child, vars));
      }
    }
    return Status::OK();
  }

  const hdt::Hdt& sheet_;
  const hdt::Hdt& doc_;
  hdt::NodeId context_ = hdt::kInvalidNode;
  std::vector<hdt::Row> rows_;
};

}  // namespace

Result<hdt::Table> RunXslt(const std::string& stylesheet,
                           const hdt::Hdt& doc) {
  MITRA_ASSIGN_OR_RETURN(hdt::Hdt sheet, ParseXml(stylesheet));
  return Interpreter(sheet, doc).Run();
}

}  // namespace mitra::xml
