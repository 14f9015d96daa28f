#include "xml/xslt_codegen.h"

#include <algorithm>

#include "common/strings.h"
#include "xml/xml_parser.h"

namespace mitra::xml {

namespace {

using dsl::Atom;
using dsl::ColOp;
using dsl::ColStep;
using dsl::ColumnExtractor;
using dsl::CmpOp;
using dsl::Dnf;
using dsl::Literal;
using dsl::NodeExtractor;
using dsl::NodeOp;
using dsl::NodeStep;
using dsl::Program;

/// Renders one column-extractor step as a plain (element-form) XPath step.
std::string ColStepXPath(const ColStep& st) {
  std::string tag = st.tag == "text" ? "text()" : st.tag;
  switch (st.op) {
    case ColOp::kChildren:
      return tag;
    case ColOp::kPChildren:
      return tag + "[" + std::to_string(st.pos + 1) + "]";
    case ColOp::kDescendants:
      return "descendant::" + tag;
  }
  return "";
}

/// Attribute-form of a final step, or empty when it cannot address an
/// attribute (text steps, positional selections beyond 0).
std::string ColStepAttrXPath(const ColStep& st) {
  if (st.tag == "text") return "";
  switch (st.op) {
    case ColOp::kChildren:
      return "@" + st.tag;
    case ColOp::kPChildren:
      return st.pos == 0 ? "@" + st.tag : "";
    case ColOp::kDescendants:
      return "descendant-or-self::*/@" + st.tag;
  }
  return "";
}

/// Absolute XPath of a column extractor, rooted at the document element.
/// Since attributes can only terminate a path, only the final step needs
/// the element/attribute union — expressed as a union of two complete
/// paths (XPath 1.0 has no parenthesized path steps).
std::string ColumnXPath(const ColumnExtractor& pi) {
  std::string path = "/*";
  for (size_t i = 0; i + 1 < pi.steps.size(); ++i) {
    path += "/" + ColStepXPath(pi.steps[i]);
  }
  if (pi.steps.empty()) return path;
  const ColStep& last = pi.steps.back();
  std::string elem_form = path + "/" + ColStepXPath(last);
  std::string attr_step = ColStepAttrXPath(last);
  if (attr_step.empty()) return elem_form;
  return elem_form + " | " + path + "/" + attr_step;
}

/// Relative XPath of a node extractor, applied to a bound variable.
/// A final `child` step with pos 0 may address what was an attribute in
/// the source document, so it expands to a union of the element and
/// attribute forms (attributes cannot appear mid-path: they have no
/// children, so only the last step needs the union).
std::string NodeXPath(const std::string& var, const NodeExtractor& phi) {
  std::string path = var;
  for (size_t i = 0; i < phi.steps.size(); ++i) {
    const NodeStep& st = phi.steps[i];
    bool last = i + 1 == phi.steps.size();
    if (st.op == NodeOp::kParent) {
      path += "/..";
    } else if (st.tag == "text") {
      path += "/text()[" + std::to_string(st.pos + 1) + "]";
    } else {
      std::string elem_form =
          path + "/" + st.tag + "[" + std::to_string(st.pos + 1) + "]";
      if (last && st.pos == 0) {
        path = "(" + elem_form + " | " + path + "/@" + st.tag + ")";
      } else {
        path = elem_form;
      }
    }
  }
  return path;
}

std::string CmpXPath(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "&lt;";
    case CmpOp::kLe:
      return "&lt;=";
    case CmpOp::kGt:
      return "&gt;";
    case CmpOp::kGe:
      return "&gt;=";
  }
  return "=";
}

std::string VarName(int col) { return "$c" + std::to_string(col); }

/// An XPath 1.0 string literal for `s`. Literals have no escapes: a string
/// without ' is delimited by ', one without " by ", and one holding both
/// is a concat() of alternately quoted pieces — each run of ' inside "…",
/// the text between runs inside '…'.
std::string XPathStringLiteral(const std::string& s) {
  if (s.find('\'') == std::string::npos) return "'" + s + "'";
  if (s.find('"') == std::string::npos) return "\"" + s + "\"";
  std::string out = "concat(";
  for (size_t i = 0; i < s.size();) {
    const bool apostrophes = s[i] == '\'';
    size_t j = apostrophes ? s.find_first_not_of('\'', i) : s.find('\'', i);
    if (j == std::string::npos) j = s.size();
    if (i > 0) out += ", ";
    const char quote = apostrophes ? '"' : '\'';
    out += quote;
    out.append(s, i, j - i);
    out += quote;
    i = j;
  }
  return out + ")";
}

/// Renders an atomic predicate as an XPath boolean expression.
std::string AtomXPath(const Atom& a) {
  std::string lhs = NodeXPath(VarName(a.lhs_col), a.lhs_path);
  std::string rhs;
  bool identity = false;
  if (a.rhs_is_const) {
    // The test sits in a double-quoted attribute, so the literal is
    // XML-escaped.
    auto num = mitra::ParseNumber(a.rhs_const);
    rhs = num ? a.rhs_const : EscapeAttribute(XPathStringLiteral(a.rhs_const));
  } else {
    rhs = NodeXPath(VarName(a.rhs_col), a.rhs_path);
    // Node-identity comparisons (internal nodes under `=`) require
    // generate-id() in XPath 1.0; value comparison is correct for leaves.
    // The generator emits the identity form whenever both sides are bare
    // paths (conservative: identity implies value equality for leaves too
    // in MITRA's documents, where leaf text uniquely belongs to its node).
    identity = (a.op == CmpOp::kEq);
  }
  if (identity && !a.rhs_is_const) {
    return "generate-id(" + lhs + ") = generate-id(" + rhs + ") or " + lhs +
           " = " + rhs;
  }
  return lhs + " " + CmpXPath(a.op) + " " + rhs;
}

/// Max column index referenced by an atom (binding level for hoisting).
int AtomMaxCol(const Atom& a) {
  return a.rhs_is_const ? a.lhs_col : std::max(a.lhs_col, a.rhs_col);
}

std::string LiteralXPath(const Literal& lit, const std::vector<Atom>& atoms) {
  std::string e = AtomXPath(atoms[lit.atom]);
  if (lit.negated) return "not(" + e + ")";
  return "(" + e + ")";
}

}  // namespace

std::string GenerateXslt(const Program& p) {
  std::string out;
  out +=
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<xsl:stylesheet version=\"1.0\"\n"
      "    xmlns:xsl=\"http://www.w3.org/1999/XSL/Transform\">\n"
      "  <xsl:output method=\"xml\" indent=\"yes\"/>\n"
      "  <xsl:template match=\"/\">\n"
      "    <table>\n";

  const size_t k = p.columns.size();
  int indent = 6;
  auto line = [&](const std::string& s) {
    out += std::string(static_cast<size_t>(indent), ' ') + s + "\n";
  };

  // Single-clause formulas allow per-level hoisting (App. C); otherwise the
  // whole test is evaluated once all columns are bound. Close tags must
  // unwind in exact reverse opening order (an if opened between two
  // for-eachs closes between their end tags), so track them on a stack.
  bool hoistable = p.formula.clauses.size() == 1;

  std::vector<std::string> close_stack;
  for (size_t i = 0; i < k; ++i) {
    line("<xsl:for-each select=\"" + ColumnXPath(p.columns[i]) + "\">");
    indent += 2;
    close_stack.push_back("</xsl:for-each>");
    line("<xsl:variable name=\"c" + std::to_string(i) +
         "\" select=\".\"/>");
    if (hoistable) {
      // Emit every literal whose columns are all bound at this level.
      std::vector<std::string> tests;
      for (const Literal& lit : p.formula.clauses[0]) {
        if (AtomMaxCol(p.atoms[lit.atom]) == static_cast<int>(i)) {
          tests.push_back(LiteralXPath(lit, p.atoms));
        }
      }
      if (!tests.empty()) {
        line("<xsl:if test=\"" + JoinStrings(tests, " and ") + "\">");
        indent += 2;
        close_stack.push_back("</xsl:if>");
      }
    }
  }

  if (!hoistable && !p.formula.IsTrue()) {
    std::vector<std::string> clause_strs;
    for (const auto& clause : p.formula.clauses) {
      std::vector<std::string> lits;
      for (const Literal& lit : clause) {
        lits.push_back(LiteralXPath(lit, p.atoms));
      }
      clause_strs.push_back("(" + JoinStrings(lits, " and ") + ")");
    }
    line("<xsl:if test=\"" + JoinStrings(clause_strs, " or ") + "\">");
    indent += 2;
    close_stack.push_back("</xsl:if>");
  }

  line("<row>");
  indent += 2;
  for (size_t i = 0; i < k; ++i) {
    line("<col><xsl:value-of select=\"$c" + std::to_string(i) +
         "\"/></col>");
  }
  indent -= 2;
  line("</row>");

  while (!close_stack.empty()) {
    indent -= 2;
    line(close_stack.back());
    close_stack.pop_back();
  }

  out +=
      "    </table>\n"
      "  </xsl:template>\n"
      "</xsl:stylesheet>\n";
  return out;
}

int CountEffectiveLoc(const std::string& code) {
  int loc = 0;
  for (const std::string& raw : SplitString(code, '\n')) {
    std::string_view t = TrimWhitespace(raw);
    if (t.empty()) continue;
    // Boilerplate excluded from the Table 1 LOC metric.
    if (StartsWith(t, "<?xml")) continue;
    if (StartsWith(t, "<xsl:stylesheet") || StartsWith(t, "xmlns:xsl")) {
      continue;
    }
    if (StartsWith(t, "</xsl:stylesheet")) continue;
    if (StartsWith(t, "<xsl:output")) continue;
    ++loc;
  }
  return loc;
}

}  // namespace mitra::xml
