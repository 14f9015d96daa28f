#include "dsl/eval.h"

#include <algorithm>

#include "common/strings.h"
#include "obs/obs.h"

namespace mitra::dsl {

std::vector<hdt::NodeId> EvalColumnFrom(
    const hdt::Hdt& tree, const ColumnExtractor& pi,
    const std::vector<hdt::NodeId>& start) {
  std::vector<hdt::NodeId> cur = start;
  // Scratch reused across steps (swap-and-clear): the per-step allocation
  // dominated profile on long extractors over large documents.
  std::vector<hdt::NodeId> next;
  for (const ColStep& st : pi.steps) {
    next.clear();
    auto tag = tree.LookupTag(st.tag);
    if (!tag) return {};  // tag absent from this tree: empty set
    switch (st.op) {
      case ColOp::kChildren: {
        size_t total = 0;
        for (hdt::NodeId n : cur) {
          total += tree.ChildrenWithTag(n, *tag).size();
        }
        next.reserve(total);
        for (hdt::NodeId n : cur) {
          auto s = tree.ChildrenWithTag(n, *tag);
          next.insert(next.end(), s.begin(), s.end());
        }
        break;
      }
      case ColOp::kPChildren:
        for (hdt::NodeId n : cur) {
          hdt::NodeId c = tree.ChildWithTagPos(n, *tag, st.pos);
          if (c != hdt::kInvalidNode) next.push_back(c);
        }
        break;
      case ColOp::kDescendants: {
        size_t total = 0;
        for (hdt::NodeId n : cur) {
          total += tree.DescendantsWithTag(n, *tag).size();
        }
        next.reserve(total);
        for (hdt::NodeId n : cur) {
          auto s = tree.DescendantsWithTag(n, *tag);
          next.insert(next.end(), s.begin(), s.end());
        }
        break;
      }
    }
    // Set semantics: sort (document order) and dedup. Children of distinct
    // parents are distinct, but descendants of overlapping subtrees are not.
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    std::swap(cur, next);
    if (cur.empty()) break;
  }
  return cur;
}

std::vector<hdt::NodeId> EvalColumn(const hdt::Hdt& tree,
                                    const ColumnExtractor& pi) {
  if (tree.empty()) return {};
  return EvalColumnFrom(tree, pi, {tree.root()});
}

BoundNodeExtractor BindNodeExtractor(const hdt::Hdt& tree,
                                     const NodeExtractor& phi) {
  BoundNodeExtractor bound;
  bound.steps.reserve(phi.steps.size());
  for (const NodeStep& st : phi.steps) {
    BoundNodeExtractor::Step& b = bound.steps.emplace_back();
    b.op = st.op;
    b.pos = st.pos;
    if (st.op == NodeOp::kChild) b.tag = tree.LookupTag(st.tag).value_or(-1);
  }
  return bound;
}

hdt::NodeId EvalNodeExtractor(const hdt::Hdt& tree,
                              const BoundNodeExtractor& phi, hdt::NodeId n) {
  for (const BoundNodeExtractor::Step& st : phi.steps) {
    if (n == hdt::kInvalidNode) return hdt::kInvalidNode;
    switch (st.op) {
      case NodeOp::kParent:
        n = tree.Parent(n);
        break;
      case NodeOp::kChild:
        if (st.tag < 0) return hdt::kInvalidNode;
        n = tree.ChildWithTagPos(n, st.tag, st.pos);
        break;
    }
  }
  return n;
}

BoundAtom BindAtom(const hdt::Hdt& tree, const Atom& atom) {
  BoundAtom bound;
  bound.atom = &atom;
  bound.lhs_path = BindNodeExtractor(tree, atom.lhs_path);
  if (atom.rhs_is_const) {
    bound.rhs_number = ParseNumber(atom.rhs_const);
  } else {
    bound.rhs_path = BindNodeExtractor(tree, atom.rhs_path);
  }
  return bound;
}

std::vector<BoundAtom> BindAtoms(const hdt::Hdt& tree,
                                 const std::vector<Atom>& atoms) {
  std::vector<BoundAtom> bound;
  bound.reserve(atoms.size());
  for (const Atom& a : atoms) bound.push_back(BindAtom(tree, a));
  return bound;
}

namespace {

bool ApplyCmp(CmpOp op, int cmp) {
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

int CompareNumbers(double a, double b) { return a < b ? -1 : (a > b ? 1 : 0); }

int CompareStrings(std::string_view a, std::string_view b) {
  const int c = a.compare(b);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

/// CompareData of two leaves' data, a data-less leaf holding "", with
/// each value's number read from the dictionary rather than parsed.
int CompareLeaves(const hdt::Hdt& tree, hdt::NodeId a, hdt::NodeId b) {
  const hdt::DataId da = tree.GetDataId(a);
  const hdt::DataId db = tree.GetDataId(b);
  if (da == db) return 0;  // one value, or two data-less leaves
  if (da != hdt::kInvalidData && db != hdt::kInvalidData) {
    const std::optional<double>& na = tree.DictNumber(da);
    const std::optional<double>& nb = tree.DictNumber(db);
    if (na && nb) return CompareNumbers(*na, *nb);
  }
  return CompareStrings(tree.Data(a), tree.Data(b));
}

}  // namespace

bool ConstCmpHolds(const hdt::Hdt& tree, const BoundAtom& atom,
                   hdt::DataId d) {
  const std::optional<double>& num = tree.DictNumber(d);
  const int cmp = num && atom.rhs_number
                      ? CompareNumbers(*num, *atom.rhs_number)
                      : CompareStrings(tree.DictValue(d), atom.atom->rhs_const);
  return ApplyCmp(atom.atom->op, cmp);
}

bool EvalAtom(const hdt::Hdt& tree, const BoundAtom& bound,
              const NodeTuple& t) {
  const Atom& atom = *bound.atom;
  if (atom.lhs_col < 0 || static_cast<size_t>(atom.lhs_col) >= t.size()) {
    return false;
  }
  hdt::NodeId n1 = EvalNodeExtractor(tree, bound.lhs_path, t[atom.lhs_col]);
  if (n1 == hdt::kInvalidNode) return false;

  if (atom.rhs_is_const) {
    // ⟦((λn.ϕ) t[i]) ⋈ c⟧ = n'.data ⋈ c  (nil data never satisfies).
    if (!tree.HasData(n1)) return false;
    return ConstCmpHolds(tree, bound, tree.GetDataId(n1));
  }

  if (atom.rhs_col < 0 || static_cast<size_t>(atom.rhs_col) >= t.size()) {
    return false;
  }
  hdt::NodeId n2 = EvalNodeExtractor(tree, bound.rhs_path, t[atom.rhs_col]);
  if (n2 == hdt::kInvalidNode) return false;

  bool leaf1 = tree.IsLeaf(n1);
  bool leaf2 = tree.IsLeaf(n2);
  if (leaf1 && leaf2) return ApplyCmp(atom.op, CompareLeaves(tree, n1, n2));
  if (!leaf1 && !leaf2 && atom.op == CmpOp::kEq) {
    return n1 == n2;  // node identity (Fig. 7)
  }
  return false;
}

bool EvalDnf(const hdt::Hdt& tree, const Dnf& f,
             const std::vector<BoundAtom>& atoms, const NodeTuple& t) {
  for (const auto& clause : f.clauses) {
    bool all = true;
    for (const Literal& lit : clause) {
      bool v = EvalAtom(tree, atoms[lit.atom], t);
      if (lit.negated) v = !v;
      if (!v) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

Result<std::vector<NodeTuple>> CrossProduct(
    const std::vector<const std::vector<hdt::NodeId>*>& columns,
    const EvalOptions& opts) {
  const size_t k = columns.size();
  if (k > kMaxEvalColumns) {
    return Status::ResourceExhausted(
        "program has " + std::to_string(k) + " columns (limit " +
        std::to_string(kMaxEvalColumns) + ")");
  }
  uint64_t total = 1;
  for (const std::vector<hdt::NodeId>* column : columns) {
    total *= column->size();
    if (column->empty()) return std::vector<NodeTuple>{};
    if (total > opts.max_intermediate_tuples) {
      return Status::ResourceExhausted(
          "intermediate table would have " + std::to_string(total) +
          " tuples (limit " + std::to_string(opts.max_intermediate_tuples) +
          ")");
    }
  }
  if (opts.governor != nullptr) {
    // The size is known exactly before materialization; charge it all up
    // front so an over-budget product is rejected before allocation.
    MITRA_RETURN_IF_ERROR(
        opts.governor->ChargeRows(total, "eval/cross-product"));
    MITRA_RETURN_IF_ERROR(opts.governor->ChargeBytes(
        total * k * sizeof(hdt::NodeId), "alloc/cross-product"));
  }
  std::vector<NodeTuple> out;
  if (k == 0) return out;
  out.reserve(static_cast<size_t>(total));
  NodeTuple t(k);
  // Odometer enumeration: column 0 is the outermost loop, matching the
  // row order of the paper's intermediate-table figure (Fig. 4b).
  std::vector<size_t> idx(k, 0);
  while (true) {
    if (opts.governor != nullptr && (out.size() & 0xFFF) == 0xFFF) {
      MITRA_GOV_CHECK(opts.governor, "eval/cross-product");
    }
    for (size_t i = 0; i < k; ++i) t[i] = (*columns[i])[idx[i]];
    out.push_back(t);
    size_t i = k;
    while (i > 0) {
      --i;
      if (++idx[i] < columns[i]->size()) break;
      idx[i] = 0;
      if (i == 0) return out;
    }
  }
}

Result<std::vector<NodeTuple>> EvalCrossProduct(
    const hdt::Hdt& tree, const std::vector<ColumnExtractor>& columns,
    const EvalOptions& opts) {
  // Columns after the first empty one stay unevaluated, and empty: the
  // product is empty either way. Past kMaxEvalColumns, CrossProduct
  // rejects the columns before reading any, so none is evaluated.
  std::vector<std::vector<hdt::NodeId>> values(columns.size());
  std::vector<const std::vector<hdt::NodeId>*> cols;
  cols.reserve(columns.size());
  for (const std::vector<hdt::NodeId>& v : values) cols.push_back(&v);
  const size_t to_evaluate =
      columns.size() <= kMaxEvalColumns ? columns.size() : 0;
  for (size_t i = 0; i < to_evaluate; ++i) {
    MITRA_GOV_CHECK(opts.governor, "eval/column");
    values[i] = EvalColumn(tree, columns[i]);
    if (values[i].empty()) break;
  }
  return CrossProduct(cols, opts);
}

Result<std::vector<NodeTuple>> EvalProgramNodeTuples(const hdt::Hdt& tree,
                                                     const Program& p,
                                                     const EvalOptions& opts) {
  MITRA_ASSIGN_OR_RETURN(std::vector<NodeTuple> cross,
                         EvalCrossProduct(tree, p.columns, opts));
  const std::vector<BoundAtom> atoms = BindAtoms(tree, p.atoms);
  std::vector<NodeTuple> out;
  for (NodeTuple& t : cross) {
    if (EvalDnf(tree, p.formula, atoms, t)) out.push_back(std::move(t));
  }
  // Tuples are counted once per eval call, not per tuple: this is the
  // synthesizer's innermost verification loop.
  MITRA_COUNT("dsl/eval/calls", 1);
  MITRA_COUNT("dsl/eval/tuples_considered", cross.size());
  MITRA_COUNT("dsl/eval/tuples_kept", out.size());
  return out;
}

hdt::Row ProjectData(const hdt::Hdt& tree, const NodeTuple& t) {
  hdt::Row row;
  row.reserve(t.size());
  for (hdt::NodeId n : t) row.emplace_back(tree.Data(n));
  return row;
}

Status AppendProjectedRow(const hdt::Hdt& tree,
                          std::span<const hdt::NodeId> t, hdt::Table* out) {
  for (hdt::NodeId n : t) out->AppendCell(tree.Data(n));
  return out->EndRow();
}

Result<hdt::Table> EvalProgram(const hdt::Hdt& tree, const Program& p,
                               const EvalOptions& opts) {
  MITRA_ASSIGN_OR_RETURN(std::vector<NodeTuple> tuples,
                         EvalProgramNodeTuples(tree, p, opts));
  hdt::Table out(p.columns.size());
  for (const NodeTuple& t : tuples) {
    MITRA_RETURN_IF_ERROR(AppendProjectedRow(tree, t, &out));
  }
  return out;
}

}  // namespace mitra::dsl
