#include "json/js_codegen.h"

#include <algorithm>
#include <vector>

#include "common/json_escape.h"
#include "common/strings.h"

namespace mitra::json {

namespace {

using dsl::Atom;
using dsl::ColOp;
using dsl::ColStep;
using dsl::ColumnExtractor;
using dsl::CmpOp;
using dsl::Literal;
using dsl::NodeExtractor;
using dsl::NodeOp;
using dsl::Program;

constexpr char kRuntimeMarker[] = "// --- mitra runtime ---";

/// A single-quoted JS string literal: JSON escaping plus the quote.
std::string JsStr(const std::string& s) {
  std::string out = "'";
  for (char c : common::EscapeJsonString(s)) {
    if (c == '\'') out += '\\';
    out += c;
  }
  return out + "'";
}

std::string ColumnExpr(const ColumnExtractor& pi) {
  std::string out = "[root]";
  for (const ColStep& st : pi.steps) {
    switch (st.op) {
      case ColOp::kChildren:
        out = "children(" + out + ", " + JsStr(st.tag) + ")";
        break;
      case ColOp::kPChildren:
        out = "pchildren(" + out + ", " + JsStr(st.tag) + ", " +
              std::to_string(st.pos) + ")";
        break;
      case ColOp::kDescendants:
        out = "descendants(" + out + ", " + JsStr(st.tag) + ")";
        break;
    }
  }
  return out;
}

std::string NodeExpr(const std::string& var, const NodeExtractor& phi) {
  std::string out = var;
  for (const dsl::NodeStep& st : phi.steps) {
    if (st.op == NodeOp::kParent) {
      out = "parent(" + out + ")";
    } else {
      out = "child(" + out + ", " + JsStr(st.tag) + ", " +
            std::to_string(st.pos) + ")";
    }
  }
  return out;
}

std::string CmpFn(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "eq";
    case CmpOp::kNe:
      return "ne";
    case CmpOp::kLt:
      return "lt";
    case CmpOp::kLe:
      return "le";
    case CmpOp::kGt:
      return "gt";
    case CmpOp::kGe:
      return "ge";
  }
  return "eq";
}

std::string AtomExpr(const Atom& a) {
  std::string lhs = NodeExpr("c" + std::to_string(a.lhs_col), a.lhs_path);
  if (a.rhs_is_const) {
    return "cmpConst(" + CmpFn(a.op) + ", " + lhs + ", " +
           JsStr(a.rhs_const) + ")";
  }
  std::string rhs = NodeExpr("c" + std::to_string(a.rhs_col), a.rhs_path);
  return "cmpNodes(" + CmpFn(a.op) + ", '" + dsl::ToString(a.op) + "', " +
         lhs + ", " + rhs + ")";
}

int AtomMaxCol(const Atom& a) {
  return a.rhs_is_const ? a.lhs_col : std::max(a.lhs_col, a.rhs_col);
}

std::string LiteralExpr(const Literal& lit, const std::vector<Atom>& atoms) {
  std::string e = AtomExpr(atoms[lit.atom]);
  return lit.negated ? "!" + e : e;
}

}  // namespace

std::string GenerateJavaScript(const Program& p) {
  std::string out;
  auto indent_str = [](int n) { return std::string(static_cast<size_t>(n), ' '); };
  out += "// Generated by mitra-json: tree-to-table migration program.\n";
  out += "function migrate(doc) {\n";
  // Top-level arrays take tag `item`, matching the C++ plug-in's encoding.
  out +=
      "  const root = toHdt('root', Array.isArray(doc) ? { item: doc } : "
      "doc, null, 0);\n";
  out += "  const rows = [];\n";

  const size_t k = p.columns.size();
  int ind = 2;
  bool hoistable = p.formula.clauses.size() == 1;
  int open_braces = 0;

  for (size_t i = 0; i < k; ++i) {
    out += indent_str(ind) + "for (const c" + std::to_string(i) + " of " +
           ColumnExpr(p.columns[i]) + ") {\n";
    ind += 2;
    ++open_braces;
    if (hoistable) {
      std::vector<std::string> tests;
      for (const Literal& lit : p.formula.clauses[0]) {
        if (AtomMaxCol(p.atoms[lit.atom]) == static_cast<int>(i)) {
          tests.push_back(LiteralExpr(lit, p.atoms));
        }
      }
      if (!tests.empty()) {
        out += indent_str(ind) + "if (!(" + JoinStrings(tests, " && ") +
               ")) continue;\n";
      }
    }
  }

  if (!hoistable && !p.formula.IsTrue()) {
    std::vector<std::string> clause_strs;
    for (const auto& clause : p.formula.clauses) {
      std::vector<std::string> lits;
      for (const Literal& lit : clause) {
        lits.push_back(LiteralExpr(lit, p.atoms));
      }
      clause_strs.push_back("(" + JoinStrings(lits, " && ") + ")");
    }
    out += indent_str(ind) + "if (!(" + JoinStrings(clause_strs, " || ") +
           ")) continue;\n";
  }

  out += indent_str(ind) + "rows.push([";
  for (size_t i = 0; i < k; ++i) {
    if (i > 0) out += ", ";
    out += "data(c" + std::to_string(i) + ")";
  }
  out += "]);\n";

  for (int i = 0; i < open_braces; ++i) {
    ind -= 2;
    out += indent_str(ind) + "}\n";
  }
  out += "  return rows;\n";
  out += "}\n\n";

  // Self-contained runtime: the "built-in functions" the paper excludes
  // from its LOC metric.
  out += std::string(kRuntimeMarker) + "\n";
  out += R"js(function toHdt(tag, value, parent, pos) {
  const node = { tag, pos, parent, data: null, children: [] };
  if (value === null || typeof value !== 'object') {
    node.data = value === null ? 'null' : String(value);
    return node;
  }
  if (Array.isArray(value)) {
    // An array value contributes siblings at the *parent* level; a bare
    // array node only appears for nested arrays.
    for (const el of value) {
      node.children.push(toHdt(tag, el, node, nextPos(node, tag)));
    }
    return node;
  }
  for (const key of Object.keys(value)) {
    const v = value[key];
    if (Array.isArray(v)) {
      for (const el of v) {
        node.children.push(toHdt(key, el, node, nextPos(node, key)));
      }
    } else {
      node.children.push(toHdt(key, v, node, nextPos(node, key)));
    }
  }
  return node;
}
function nextPos(parent, tag) {
  let n = 0;
  for (const c of parent.children) if (c.tag === tag) n++;
  return n;
}
function children(set, tag) {
  const out = [];
  for (const n of set) for (const c of n.children) if (c.tag === tag) out.push(c);
  return out;
}
function pchildren(set, tag, pos) {
  const out = [];
  for (const n of set) for (const c of n.children)
    if (c.tag === tag && c.pos === pos) out.push(c);
  return out;
}
function descendants(set, tag) {
  const out = [], seen = new Set();
  const visit = (n) => {
    for (const c of n.children) {
      if (c.tag === tag && !seen.has(c)) { seen.add(c); out.push(c); }
      visit(c);
    }
  };
  for (const n of set) visit(n);
  return out;
}
function parent(n) { return n ? n.parent : null; }
function child(n, tag, pos) {
  if (!n) return null;
  for (const c of n.children) if (c.tag === tag && c.pos === pos) return c;
  return null;
}
function data(n) { return n && n.data !== null ? n.data : ''; }
function coerce(a, b) {
  const na = Number(a), nb = Number(b);
  if (a !== '' && b !== '' && !Number.isNaN(na) && !Number.isNaN(nb)) {
    return [na, nb];
  }
  return [a, b];
}
function eq(a, b) { const [x, y] = coerce(a, b); return x === y; }
function ne(a, b) { return !eq(a, b); }
function lt(a, b) { const [x, y] = coerce(a, b); return x < y; }
function le(a, b) { const [x, y] = coerce(a, b); return x <= y; }
function gt(a, b) { const [x, y] = coerce(a, b); return x > y; }
function ge(a, b) { const [x, y] = coerce(a, b); return x >= y; }
function cmpConst(fn, n, c) {
  if (!n || n.data === null) return false;
  return fn(n.data, c);
}
function cmpNodes(fn, op, n1, n2) {
  if (!n1 || !n2) return false;
  const leaf1 = n1.children.length === 0, leaf2 = n2.children.length === 0;
  if (leaf1 && leaf2) return fn(data(n1), data(n2));
  if (!leaf1 && !leaf2 && op === '=') return n1 === n2;
  return false;
}
if (typeof module !== 'undefined') module.exports = { migrate };
)js";
  return out;
}

int CountEffectiveLoc(const std::string& code) {
  int loc = 0;
  for (const std::string& raw : SplitString(code, '\n')) {
    std::string_view t = TrimWhitespace(raw);
    if (t == kRuntimeMarker) break;  // runtime scaffold excluded
    if (t.empty() || StartsWith(t, "//")) continue;
    ++loc;
  }
  return loc;
}

}  // namespace mitra::json
