#include "testing/generators.h"

#include <vector>

#include "dsl/eval.h"
#include "testing/tree_edit.h"

namespace mitra::testing {

namespace {

/// Small recurring tag vocabulary — recurring tags across levels is what
/// makes descendants/pchildren extractions and join predicates non-trivial.
/// Includes "text" on purpose: an *element* named text must survive
/// round-trips (it is distinct from a mixed-content text run).
const char* const kTags[] = {"a", "b", "c", "item", "name", "text"};
const char* const kAttrNames[] = {"id", "k0", "k1", "lang"};

/// Plain data values: identifiers and small numbers (small pools make
/// value-join predicates match often).
const char* const kPlainData[] = {"x", "y", "z", "0", "1", "7", "42", "-3.5"};

/// Tricky values: escaping, entity lookalikes, number-lookalike strings,
/// multi-byte UTF-8 — the payloads that historically break writers.
/// All are XML-safe per the encoding invariants: non-empty, no leading or
/// trailing whitespace (the XML parser trims character data).
const char* const kTrickyData[] = {
    "007",          "1.",           "2e3",         "-0",
    "true",         "null",         "&#65;",       "&amp;lt;",
    "<i>",          "\"q\"",        "it's",        "a  b",
    "h\xc3\xa9llo", "\xf0\x9f\x98\x80", "tab\tsep", "nl\nnl",
};

std::string PickData(Rng* rng, bool tricky) {
  if (tricky && rng->Chance(2, 5)) {
    return kTrickyData[rng->Below(sizeof(kTrickyData) / sizeof(char*))];
  }
  return kPlainData[rng->Below(sizeof(kPlainData) / sizeof(char*))];
}

const char* PickTag(Rng* rng) {
  return kTags[rng->Below(sizeof(kTags) / sizeof(char*))];
}

/// What the shape rules below need to know about the children already
/// grown under one parent.
struct GrownKids {
  std::vector<std::string> tags;  ///< in document order
  bool last_is_text_run = false;

  void Note(std::string tag, bool text_run = false) {
    tags.push_back(std::move(tag));
    last_is_text_run = text_run;
  }
};

/// Recursively grows an XML- or JSON-shaped subtree under `parent`, whose
/// children so far are `kids`, spending at most `*budget` nodes.
void GrowChildren(Rng* rng, const DocGenOptions& opts, hdt::HdtBuilder* t,
                  hdt::NodeId parent, GrownKids* kids, int depth,
                  int* budget) {
  if (*budget <= 0 || depth > 5) return;

  if (opts.xml_shape) {
    // Attributes first (the parser records them before content).
    if (opts.xml_shape && depth > 0 && rng->Chance(1, 4)) {
      int n_attrs = rng->Range(1, 2);
      for (int i = 0; i < n_attrs && *budget > 0; ++i) {
        // Unique names per element: pick disjoint indices.
        const char* name = kAttrNames[(rng->Below(2) + 2 * i) % 4];
        t->AddAttribute(parent, name, PickData(rng, opts.tricky_data));
        kids->Note(name);
        --*budget;
      }
    }
    int n_children = rng->Range(depth == 0 ? 1 : 0, 3);
    for (int i = 0; i < n_children && *budget > 0; ++i) {
      uint32_t kind = rng->Below(10);
      if (kind < 5) {
        // Data leaf (never gets attributes or children — parser image).
        // Drawn value first: the documents a seed yields depend on the
        // order of the draws.
        const std::string data = PickData(rng, opts.tricky_data);
        const char* tag = PickTag(rng);
        t->AddChild(parent, tag, data);
        kids->Note(tag);
        --*budget;
      } else if (kind < 8) {
        const char* tag = PickTag(rng);
        hdt::NodeId c = t->AddChild(parent, tag);
        kids->Note(tag);
        --*budget;
        GrownKids grandkids;
        GrowChildren(rng, opts, t, c, &grandkids, depth + 1, budget);
      } else {
        // Mixed-content text run: only valid when the element has other
        // children (a lone run would collapse into element data) and the
        // preceding child is not itself a run (adjacent character data
        // merges into one run on re-parse).
        if (!kids->tags.empty() && !kids->last_is_text_run) {
          t->AddTextRun(parent, PickData(rng, opts.tricky_data));
          kids->Note("text", /*text_run=*/true);
          --*budget;
        }
      }
    }
  } else {
    // JSON shape: children come in same-key groups (the writer groups
    // same-tag siblings into one array, so they must be consecutive).
    // A key may repeat under `parent` only by extending the tail group —
    // anywhere else the writer's grouping would reorder the children.
    int n_groups = rng->Range(depth == 0 ? 1 : 0, 3);
    for (int g = 0; g < n_groups && *budget > 0; ++g) {
      const char* key = nullptr;
      for (int attempt = 0; attempt < 8 && key == nullptr; ++attempt) {
        const char* cand = PickTag(rng);
        bool used_before_tail = false;
        for (size_t s = 0; s + 1 < kids->tags.size(); ++s) {
          if (kids->tags[s] == cand) {
            used_before_tail = true;
            break;
          }
        }
        if (!used_before_tail) key = cand;
      }
      if (key == nullptr) break;  // vocabulary exhausted for this parent
      int size = rng->Chance(1, 3) ? rng->Range(2, 3) : 1;
      for (int i = 0; i < size && *budget > 0; ++i) {
        if (rng->Chance(3, 5) || depth >= 4) {
          t->AddChild(parent, key, PickData(rng, opts.tricky_data));
          kids->Note(key);
          --*budget;
        } else {
          hdt::NodeId c = t->AddChild(parent, key);
          kids->Note(key);
          --*budget;
          GrownKids grandkids;
          GrowChildren(rng, opts, t, c, &grandkids, depth + 1, budget);
        }
      }
    }
  }
}

}  // namespace

hdt::Hdt GenerateDocument(Rng* rng, const DocGenOptions& opts) {
  hdt::HdtBuilder t;
  hdt::NodeId root = t.AddRoot(opts.xml_shape ? "r" : "root");
  GrownKids kids;
  int budget = opts.max_nodes - 1;
  // Keep growing top-level sections until the budget is spent, so small
  // budgets still produce multi-child roots most of the time.
  int guard = 0;
  while (budget > 0 && guard++ < 8) {
    GrowChildren(rng, opts, &t, root, &kids, 0, &budget);
  }
  return t.Finish();
}

hdt::Hdt EnlargeDocument(Rng* rng, const hdt::Hdt& tree, int extra_subtrees,
                         const DocGenOptions& opts) {
  if (tree.empty() || tree.HasData(tree.root())) return CopyTree(tree);
  hdt::HdtBuilder out;
  hdt::NodeId root = CopyInto(tree, &out);
  // Replicate existing top-level subtrees with mutated string data, so the
  // grown document exercises the same tags at the same depths with fresh
  // values (numeric data is kept: re-numbering it would change numeric
  // predicate semantics in uninteresting ways).
  const hdt::ChildRange kids = tree.Children(tree.root());
  const std::vector<hdt::NodeId> top(kids.begin(), kids.end());
  if (!top.empty()) {
    for (int i = 0; i < extra_subtrees; ++i) {
      hdt::NodeId pick = top[rng->Below(static_cast<uint32_t>(top.size()))];
      AppendSubtreeCopy(tree, pick, &out, root, "#e" + std::to_string(i));
    }
  }
  // Plus one fresh random subtree for new structure.
  int budget = 6;
  hdt::NodeId section = out.AddChild(root, "a");
  GrownKids section_kids;
  GrowChildren(rng, opts, &out, section, &section_kids, 1, &budget);
  return out.Finish();
}

dsl::Program GenerateProgram(Rng* rng, const hdt::Hdt& tree,
                             const ProgGenOptions& opts) {
  std::vector<std::string> tags;
  for (hdt::TagId t : tree.AllTags()) tags.emplace_back(tree.TagName(t));
  if (tags.empty()) tags.push_back("a");
  std::vector<std::string> values = tree.AllDataValues();

  auto pick_tag = [&]() -> const std::string& {
    return tags[rng->Below(static_cast<uint32_t>(tags.size()))];
  };

  auto random_column = [&]() {
    dsl::ColumnExtractor pi;
    int steps = rng->Range(1, opts.max_col_steps);
    for (int i = 0; i < steps; ++i) {
      uint32_t r = rng->Below(10);
      dsl::ColStep st;
      if (r < 5) {
        st.op = dsl::ColOp::kChildren;
      } else if (r < 8) {
        st.op = dsl::ColOp::kDescendants;
      } else {
        st.op = dsl::ColOp::kPChildren;
        st.pos = static_cast<int32_t>(rng->Below(3));
      }
      st.tag = pick_tag();
      pi.steps.push_back(std::move(st));
    }
    return pi;
  };

  dsl::Program p;
  int k = rng->Range(1, opts.max_columns);
  uint64_t product = 1;
  for (int i = 0; i < k; ++i) {
    // Re-draw a few times to prefer non-empty extractions and to keep the
    // cross product within budget (naive evaluation must stay cheap).
    dsl::ColumnExtractor best;
    size_t best_size = 0;
    for (int attempt = 0; attempt < 6; ++attempt) {
      dsl::ColumnExtractor cand = random_column();
      size_t sz = dsl::EvalColumn(tree, cand).size();
      if (product * (sz ? sz : 1) > opts.max_cross_product) continue;
      best = std::move(cand);
      best_size = sz;
      if (sz > 0) break;
    }
    p.columns.push_back(std::move(best));
    product *= best_size ? best_size : 1;
  }

  auto random_path = [&]() {
    dsl::NodeExtractor phi;
    int steps = static_cast<int>(rng->Below(
        static_cast<uint32_t>(opts.max_node_steps + 1)));
    for (int i = 0; i < steps; ++i) {
      dsl::NodeStep st;
      if (rng->Chance(1, 2)) {
        st.op = dsl::NodeOp::kParent;
      } else {
        st.op = dsl::NodeOp::kChild;
        st.tag = pick_tag();
        st.pos = static_cast<int32_t>(rng->Below(2));
      }
      phi.steps.push_back(std::move(st));
    }
    return phi;
  };

  auto random_cmp = [&]() {
    uint32_t r = rng->Below(10);
    if (r < 5) return dsl::CmpOp::kEq;
    if (r < 6) return dsl::CmpOp::kNe;
    if (r < 7) return dsl::CmpOp::kLt;
    if (r < 8) return dsl::CmpOp::kLe;
    if (r < 9) return dsl::CmpOp::kGt;
    return dsl::CmpOp::kGe;
  };

  int n_atoms = static_cast<int>(
      rng->Below(static_cast<uint32_t>(opts.max_atoms + 1)));
  for (int i = 0; i < n_atoms; ++i) {
    dsl::Atom a;
    a.lhs_col = static_cast<int>(rng->Below(static_cast<uint32_t>(k)));
    a.lhs_path = random_path();
    a.op = random_cmp();
    if (values.empty() || rng->Chance(1, 2)) {
      a.rhs_is_const = true;
      a.rhs_const = values.empty()
                        ? PickData(rng, true)
                        : values[rng->Below(
                              static_cast<uint32_t>(values.size()))];
    } else {
      a.rhs_is_const = false;
      a.rhs_col = static_cast<int>(rng->Below(static_cast<uint32_t>(k)));
      a.rhs_path = random_path();
    }
    p.atoms.push_back(std::move(a));
  }

  if (p.atoms.empty()) {
    p.formula = rng->Chance(1, 20) ? dsl::Dnf::False() : dsl::Dnf::True();
  } else {
    dsl::Dnf f;
    int n_clauses = rng->Range(1, 2);
    for (int c = 0; c < n_clauses; ++c) {
      std::vector<dsl::Literal> clause;
      int n_lits = rng->Range(1, 2);
      for (int l = 0; l < n_lits; ++l) {
        dsl::Literal lit;
        lit.atom = static_cast<int>(
            rng->Below(static_cast<uint32_t>(p.atoms.size())));
        lit.negated = rng->Chance(1, 4);
        clause.push_back(lit);
      }
      f.clauses.push_back(std::move(clause));
    }
    p.formula = std::move(f);
  }
  // Random draws can repeat an atom or leave one unreferenced; canonical
  // form is what the printer emits and the parser reconstructs.
  p.Normalize();
  return p;
}

}  // namespace mitra::testing
