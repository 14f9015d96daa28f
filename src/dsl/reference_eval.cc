#include "dsl/reference_eval.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

namespace mitra::dsl {

namespace {

/// Name of a node's tag, by string.
std::string_view TagOf(const hdt::Hdt& t, hdt::NodeId id) {
  return t.NodeTagName(id);
}

/// All children of `id` whose tag name equals `tag`, in child order.
std::vector<hdt::NodeId> NamedChildren(const hdt::Hdt& t, hdt::NodeId id,
                                       const std::string& tag) {
  std::vector<hdt::NodeId> out;
  for (hdt::NodeId c : t.Children(id)) {
    if (TagOf(t, c) == tag) out.push_back(c);
  }
  return out;
}

/// The pos'th same-tag child, re-counted from the sibling list.
hdt::NodeId NamedChildAt(const hdt::Hdt& t, hdt::NodeId id,
                         const std::string& tag, int32_t pos) {
  int32_t seen = 0;
  for (hdt::NodeId c : t.Children(id)) {
    if (TagOf(t, c) == tag) {
      if (seen == pos) return c;
      ++seen;
    }
  }
  return hdt::kInvalidNode;
}

/// Iterative so document depth never translates into C++ stack depth (the
/// parsers cap nesting at 256 but trees can also be built programmatically).
void CollectDescendants(const hdt::Hdt& t, hdt::NodeId id,
                        const std::string& tag, std::set<hdt::NodeId>* out) {
  std::vector<hdt::NodeId> stack{id};
  while (!stack.empty()) {
    hdt::NodeId cur = stack.back();
    stack.pop_back();
    for (hdt::NodeId c : t.Children(cur)) {
      if (TagOf(t, c) == tag) out->insert(c);
      stack.push_back(c);
    }
  }
}

/// Independent re-derivation of the numeric-vs-lexicographic comparison
/// rule: when both sides fully parse as finite doubles compare numerically,
/// otherwise bytewise.
int CompareDataRef(std::string_view a, std::string_view b) {
  auto as_number = [](std::string_view s, double* out) {
    if (s.empty() || s.size() > 63) return false;
    char buf[64];
    std::memcpy(buf, s.data(), s.size());
    buf[s.size()] = '\0';
    char* end = nullptr;
    errno = 0;
    double v = std::strtod(buf, &end);
    if (end != buf + s.size() || errno == ERANGE || !std::isfinite(v)) {
      return false;
    }
    *out = v;
    return true;
  };
  double na = 0, nb = 0;
  if (as_number(a, &na) && as_number(b, &nb)) {
    return na < nb ? -1 : (na > nb ? 1 : 0);
  }
  int c = a.compare(b);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

bool CmpHolds(CmpOp op, int cmp) {
  switch (op) {
    case CmpOp::kEq:
      return cmp == 0;
    case CmpOp::kNe:
      return cmp != 0;
    case CmpOp::kLt:
      return cmp < 0;
    case CmpOp::kLe:
      return cmp <= 0;
    case CmpOp::kGt:
      return cmp > 0;
    case CmpOp::kGe:
      return cmp >= 0;
  }
  return false;
}

bool EvalDnfRef(const hdt::Hdt& tree, const Dnf& f,
                const std::vector<Atom>& atoms, const NodeTuple& t) {
  for (const auto& clause : f.clauses) {
    bool clause_holds = true;
    for (const Literal& lit : clause) {
      if (lit.atom < 0 || static_cast<size_t>(lit.atom) >= atoms.size()) {
        clause_holds = false;
        break;
      }
      bool v = ReferenceEvalAtom(tree, atoms[lit.atom], t);
      if (lit.negated) v = !v;
      if (!v) {
        clause_holds = false;
        break;
      }
    }
    if (clause_holds) return true;
  }
  return false;
}

/// Recursive cross-product enumeration: column `col` is bound innermost of
/// the prefix, matching the odometer order of Fig. 4b.
Status Enumerate(const hdt::Hdt& tree, const Program& p,
                 const std::vector<std::vector<hdt::NodeId>>& cols,
                 size_t col, NodeTuple* partial, uint64_t* budget,
                 std::vector<NodeTuple>* out) {
  if (col == cols.size()) {
    if (*budget == 0) {
      return Status::ResourceExhausted(
          "reference evaluator: intermediate tuple budget exceeded");
    }
    --*budget;
    if (EvalDnfRef(tree, p.formula, p.atoms, *partial)) {
      out->push_back(*partial);
    }
    return Status::OK();
  }
  for (hdt::NodeId n : cols[col]) {
    (*partial)[col] = n;
    MITRA_RETURN_IF_ERROR(
        Enumerate(tree, p, cols, col + 1, partial, budget, out));
  }
  return Status::OK();
}

}  // namespace

std::vector<hdt::NodeId> ReferenceEvalColumn(const hdt::Hdt& tree,
                                             const ColumnExtractor& pi) {
  if (tree.empty()) return {};
  std::set<hdt::NodeId> cur{tree.root()};
  for (const ColStep& st : pi.steps) {
    std::set<hdt::NodeId> next;
    for (hdt::NodeId n : cur) {
      switch (st.op) {
        case ColOp::kChildren:
          for (hdt::NodeId c : NamedChildren(tree, n, st.tag)) next.insert(c);
          break;
        case ColOp::kPChildren: {
          hdt::NodeId c = NamedChildAt(tree, n, st.tag, st.pos);
          if (c != hdt::kInvalidNode) next.insert(c);
          break;
        }
        case ColOp::kDescendants:
          CollectDescendants(tree, n, st.tag, &next);
          break;
      }
    }
    cur = std::move(next);
    if (cur.empty()) break;
  }
  return std::vector<hdt::NodeId>(cur.begin(), cur.end());
}

hdt::NodeId ReferenceEvalNodeExtractor(const hdt::Hdt& tree,
                                       const NodeExtractor& phi,
                                       hdt::NodeId n) {
  for (const NodeStep& st : phi.steps) {
    if (n == hdt::kInvalidNode) return hdt::kInvalidNode;
    switch (st.op) {
      case NodeOp::kParent:
        n = tree.Parent(n);
        break;
      case NodeOp::kChild:
        n = NamedChildAt(tree, n, st.tag, st.pos);
        break;
    }
  }
  return n;
}

bool ReferenceEvalAtom(const hdt::Hdt& tree, const Atom& atom,
                       const NodeTuple& t) {
  if (atom.lhs_col < 0 || static_cast<size_t>(atom.lhs_col) >= t.size()) {
    return false;
  }
  hdt::NodeId n1 =
      ReferenceEvalNodeExtractor(tree, atom.lhs_path, t[atom.lhs_col]);
  if (n1 == hdt::kInvalidNode) return false;

  if (atom.rhs_is_const) {
    if (!tree.HasData(n1)) return false;
    return CmpHolds(atom.op, CompareDataRef(tree.Data(n1), atom.rhs_const));
  }

  if (atom.rhs_col < 0 || static_cast<size_t>(atom.rhs_col) >= t.size()) {
    return false;
  }
  hdt::NodeId n2 =
      ReferenceEvalNodeExtractor(tree, atom.rhs_path, t[atom.rhs_col]);
  if (n2 == hdt::kInvalidNode) return false;

  bool leaf1 = tree.IsLeaf(n1);
  bool leaf2 = tree.IsLeaf(n2);
  if (leaf1 && leaf2) {
    return CmpHolds(atom.op, CompareDataRef(tree.Data(n1), tree.Data(n2)));
  }
  if (!leaf1 && !leaf2 && atom.op == CmpOp::kEq) return n1 == n2;
  return false;
}

Result<std::vector<NodeTuple>> ReferenceEvalProgramNodeTuples(
    const hdt::Hdt& tree, const Program& p, const ReferenceEvalOptions& opts) {
  // Enumerate() recurses once per column; the same guard the optimized
  // evaluator applies keeps that recursion bounded.
  if (p.columns.size() > kMaxEvalColumns) {
    return Status::InvalidArgument(
        "program has " + std::to_string(p.columns.size()) +
        " columns (limit " + std::to_string(kMaxEvalColumns) + ")");
  }
  std::vector<std::vector<hdt::NodeId>> cols;
  for (const ColumnExtractor& pi : p.columns) {
    cols.push_back(ReferenceEvalColumn(tree, pi));
  }
  std::vector<NodeTuple> out;
  if (p.columns.empty()) return out;
  NodeTuple partial(p.columns.size(), hdt::kInvalidNode);
  uint64_t budget = opts.max_intermediate_tuples;
  MITRA_RETURN_IF_ERROR(Enumerate(tree, p, cols, 0, &partial, &budget, &out));
  return out;
}

Result<hdt::Table> ReferenceEvalProgram(const hdt::Hdt& tree, const Program& p,
                                        const ReferenceEvalOptions& opts) {
  MITRA_ASSIGN_OR_RETURN(std::vector<NodeTuple> tuples,
                         ReferenceEvalProgramNodeTuples(tree, p, opts));
  hdt::Table out(p.columns.size());
  for (const NodeTuple& t : tuples) {
    hdt::Row row;
    for (hdt::NodeId n : t) {
      row.emplace_back(tree.Data(n));
    }
    MITRA_RETURN_IF_ERROR(out.AppendRow(std::move(row)));
  }
  return out;
}

}  // namespace mitra::dsl
