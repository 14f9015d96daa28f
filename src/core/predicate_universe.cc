#include "core/predicate_universe.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/strings.h"
#include "core/extractor_memo.h"
#include "obs/obs.h"

namespace mitra::core {

namespace {

using dsl::Atom;
using dsl::CmpOp;

int CompareFacts(const TargetFacts& a, const TargetFacts& b) {
  if (a.number && b.number) {
    if (*a.number < *b.number) return -1;
    if (*a.number > *b.number) return 1;
    return 0;
  }
  int c = a.data.compare(b.data);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

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

/// Fig. 7 semantics of a node-node comparison on pre-extracted facts.
/// Both facts come from the same example tree, so when both carry data
/// string equality is dictionary-id equality — but only on the non-numeric
/// path: "3" and "3.0" have distinct ids yet compare equal
/// numerically, so the numeric branch must win first.
bool EvalNodeNode(CmpOp op, const TargetFacts& a, const TargetFacts& b) {
  if (a.is_leaf && b.is_leaf) {
    if (op == CmpOp::kEq && !(a.number && b.number) &&
        a.data_id != hdt::kInvalidData && b.data_id != hdt::kInvalidData) {
      return a.data_id == b.data_id;
    }
    return ApplyCmp(op, CompareFacts(a, b));
  }
  if (!a.is_leaf && !b.is_leaf && op == CmpOp::kEq) return a.node == b.node;
  return false;
}

/// Fig. 7 semantics of a node-constant comparison. `c_id` is the
/// constant's dictionary id in the *same* tree the facts came from, or
/// kInvalidData when no leaf of that tree holds it — then an equality
/// against any data-bearing node is false without comparing.
bool EvalNodeConst(CmpOp op, const TargetFacts& a, std::string_view c,
                   const std::optional<double>& c_num, hdt::DataId c_id) {
  if (!a.has_data) return false;
  if (a.number && c_num) {
    int cmp = *a.number < *c_num ? -1 : (*a.number > *c_num ? 1 : 0);
    return ApplyCmp(op, cmp);
  }
  if (op == CmpOp::kEq) return a.data_id == c_id;
  int r = a.data.compare(c);
  return ApplyCmp(op, r < 0 ? -1 : (r > 0 ? 1 : 0));
}

/// Collects atoms with truth-vector deduplication and constant dropping.
class AtomCollector {
 public:
  AtomCollector(size_t num_rows, size_t max_atoms)
      : num_rows_(num_rows), max_atoms_(max_atoms) {}

  bool Full() const { return universe_.atoms.size() >= max_atoms_; }

  /// Adds the atom unless its truth vector is constant or already seen.
  void Add(Atom atom, DynBitset truth) {
    size_t cnt = truth.Count();
    if (cnt == 0 || cnt == num_rows_) return;  // cannot distinguish anything
    uint64_t h = truth.Hash();
    auto [it, inserted] = index_.try_emplace(h);
    if (!inserted) {
      for (int idx : it->second) {
        if (universe_.truth[idx] == truth) return;  // true duplicate
      }
    }
    it->second.push_back(static_cast<int>(universe_.atoms.size()));
    universe_.atoms.push_back(std::move(atom));
    universe_.truth.push_back(std::move(truth));
  }

  PredicateUniverse Take() {
    universe_.num_rows = num_rows_;
    return std::move(universe_);
  }

 private:
  size_t num_rows_;
  size_t max_atoms_;
  PredicateUniverse universe_;
  std::unordered_map<uint64_t, std::vector<int>> index_;
};

/// Pre-broadcast dedup key: an atom's row truth is fully determined by
/// its per-value (rule 4) or per-value-pair (rule 5) truth pattern, which
/// is tiny compared to the cross product. The pattern is stored packed —
/// building an O(values) character string per candidate atom was a
/// measurable cost on large universes — tagged with the rule and column
/// indices (patterns of different (rule, i, j) never collide: within one
/// tag the bit count is fixed by the columns' value counts).
class PatternDedup {
 public:
  /// Stores `pattern` under `tag` unless an equal one is stored already.
  /// Returns the stored pattern when it is new (valid until the next
  /// call), nullptr for a duplicate.
  const DynBitset* Insert(uint32_t tag, DynBitset pattern) {
    uint64_t h = HashCombine(pattern.Hash(), tag);
    auto& bucket = seen_[h];
    for (const Key& key : bucket) {
      if (key.tag == tag && key.pattern == pattern) return nullptr;
    }
    bucket.push_back(Key{tag, std::move(pattern)});
    return &bucket.back().pattern;
  }

  static uint32_t UnaryTag(size_t i) { return static_cast<uint32_t>(i); }
  static uint32_t BinaryTag(size_t i, size_t j) {
    return (uint32_t{1} << 31) | (static_cast<uint32_t>(i) << 15) |
           static_cast<uint32_t>(j);
  }

 private:
  struct Key {
    uint32_t tag;
    DynBitset pattern;
  };
  std::unordered_map<uint64_t, std::vector<Key>> seen_;
};

/// Row truth from a pattern: row r takes the pattern's bit `bit_of_row[r]`.
DynBitset Broadcast(const DynBitset& pattern,
                    const std::vector<size_t>& bit_of_row) {
  DynBitset bits(bit_of_row.size());
  for (size_t r = 0; r < bit_of_row.size(); ++r) {
    if (pattern.Test(bit_of_row[r])) bits.Set(r);
  }
  return bits;
}

}  // namespace

Result<PredicateUniverse> ConstructPredicateUniverse(
    const Examples& examples, const std::vector<dsl::ColumnExtractor>& psi,
    const std::vector<std::vector<dsl::NodeTuple>>& rows_per_example,
    ExtractorMemoCache& memo, const PredicateUniverseOptions& opts) {
  MITRA_SPAN(span, "predicate/universe");
  const size_t k = psi.size();
  const size_t num_examples = examples.size();
  if (rows_per_example.size() != num_examples) {
    return Status::InvalidArgument(
        "rows_per_example size must match examples");
  }

  // Column domains: columns[i]->values[e] = EvalColumn(tree_e, psi[i]).
  std::vector<std::shared_ptr<const ColumnEvalEntry>> columns(k);
  for (size_t i = 0; i < k; ++i) columns[i] = memo.Columns(examples, psi[i]);
  // value_index[i][e]: NodeId → index into columns[i]->values[e].
  std::vector<std::vector<std::unordered_map<hdt::NodeId, int>>> value_index(
      k);
  for (size_t i = 0; i < k; ++i) {
    value_index[i].resize(num_examples);
    for (size_t e = 0; e < num_examples; ++e) {
      const auto& values = columns[i]->values[e];
      for (size_t v = 0; v < values.size(); ++v) {
        value_index[i][e].emplace(values[v], static_cast<int>(v));
      }
    }
  }

  size_t num_rows = 0;
  for (const auto& rows : rows_per_example) num_rows += rows.size();

  // Global row r (the examples' cross products, concatenated in order)
  // comes from example row_example[r] and holds column i's value
  // row_value_idx[i][r].
  std::vector<int> row_example(num_rows);
  std::vector<std::vector<int>> row_value_idx(k,
                                              std::vector<int>(num_rows, 0));
  {
    size_t r = 0;
    for (size_t e = 0; e < num_examples; ++e) {
      for (const dsl::NodeTuple& t : rows_per_example[e]) {
        row_example[r] = static_cast<int>(e);
        for (size_t i = 0; i < k; ++i) {
          row_value_idx[i][r] = value_index[i][e].at(t[i]);
        }
        ++r;
      }
    }
  }

  // χi: valid node extractors per column, with pre-extracted facts.
  NodeExtractorEnumOptions ne = opts.node_enum;
  ne.max_extractors = opts.max_extractors_per_column;
  std::vector<std::shared_ptr<const EnumeratedEntry>> chi(k);
  for (size_t i = 0; i < k; ++i) {
    chi[i] = memo.Extractors(examples, psi[i], ne);
    if (!chi[i]->status.ok()) return chi[i]->status;
  }

  // Constant pool (rule 4): data values of the input trees.
  std::shared_ptr<const std::vector<std::string>> constants =
      memo.Constants(examples, opts.max_constants);
  std::vector<std::optional<double>> constant_nums;
  constant_nums.reserve(constants->size());
  for (const std::string& c : *constants) {
    constant_nums.push_back(ParseNumber(c));
  }
  // Per-(example, constant) dictionary ids for the id fast path in
  // EvalNodeConst. Constants are pooled across examples, so a value can be
  // present in one example's dictionary and absent from another's.
  std::vector<std::vector<hdt::DataId>> constant_ids(num_examples);
  std::uint64_t dict_fastpath = 0;
  for (size_t e = 0; e < num_examples; ++e) {
    const hdt::Hdt& tree = *examples[e].tree;
    constant_ids[e].reserve(constants->size());
    for (const std::string& c : *constants) {
      if (auto d = tree.LookupDataId(c)) {
        constant_ids[e].push_back(*d);
        ++dict_fastpath;
      } else {
        constant_ids[e].push_back(hdt::kInvalidData);
      }
    }
  }
  MITRA_COUNT("predicate/universe/dict_fastpath", dict_fastpath);

  std::vector<CmpOp> ops{CmpOp::kEq};
  if (opts.use_inequalities) {
    ops.push_back(CmpOp::kLt);
    ops.push_back(CmpOp::kLe);
  }

  AtomCollector collector(num_rows, opts.max_atoms);
  PatternDedup pattern_dedup;

  // Rule (4): ((λn.ϕ) t[i]) ⋈ c. The pattern runs over (example, value),
  // so row r reads bit offset[e] + v for its example e and column-i value
  // v, where offset[e] counts the column's values in earlier examples.
  for (size_t i = 0; i < k && !collector.Full(); ++i) {
    std::vector<size_t> offset(num_examples, 0);
    size_t pattern_bits = 0;
    for (size_t e = 0; e < num_examples; ++e) {
      offset[e] = pattern_bits;
      pattern_bits += columns[i]->values[e].size();
    }
    std::vector<size_t> bit_of_row(num_rows);
    for (size_t r = 0; r < num_rows; ++r) {
      bit_of_row[r] = offset[static_cast<size_t>(row_example[r])] +
                      static_cast<size_t>(row_value_idx[i][r]);
    }
    for (const ExtractorWithFacts& ef : chi[i]->extractors) {
      MITRA_GOV_CHECK(opts.governor, "universe/unary");
      for (size_t ci = 0; ci < constants->size(); ++ci) {
        for (CmpOp op : ops) {
          if (collector.Full()) break;
          MITRA_COUNT("predicate/universe/atoms_considered", 1);
          DynBitset pattern(pattern_bits);
          size_t bit = 0;
          bool any_true = false, any_false = false;
          for (size_t e = 0; e < num_examples; ++e) {
            for (const TargetFacts& tf : ef.facts[e]) {
              bool v = EvalNodeConst(op, tf, (*constants)[ci],
                                     constant_nums[ci], constant_ids[e][ci]);
              if (v) pattern.Set(bit);
              ++bit;
              (v ? any_true : any_false) = true;
            }
          }
          if (!any_true || !any_false) {  // constant per value ⇒
            MITRA_COUNT("predicate/universe/atoms_const_dropped", 1);
            continue;                     // constant per row
          }
          const DynBitset* stored = pattern_dedup.Insert(
              PatternDedup::UnaryTag(i), std::move(pattern));
          if (stored == nullptr) {
            MITRA_COUNT("predicate/universe/atoms_deduped", 1);
            continue;
          }
          if (opts.governor != nullptr) {
            MITRA_RETURN_IF_ERROR(opts.governor->ChargeBytes(
                num_rows / 8 + 32, "alloc/universe-atom"));
          }
          Atom a;
          a.lhs_path = ef.extractor;
          a.lhs_col = static_cast<int>(i);
          a.op = op;
          a.rhs_is_const = true;
          a.rhs_const = (*constants)[ci];
          collector.Add(std::move(a), Broadcast(*stored, bit_of_row));
        }
      }
    }
  }

  // Rule (5): ((λn.ϕ1) t[i]) ⋈ ((λn.ϕ2) t[j]). Extractor pairs are
  // enumerated by total depth, then by *balance* (|d1-d2|): when two
  // atoms have identical truth on the example (e.g. a parent-identity
  // join vs. a coincidental value join through a deeper path), the
  // deduplication keeps the first, and the balanced structural pair is
  // the one that generalizes.
  for (size_t i = 0; i < k && !collector.Full(); ++i) {
    for (size_t j = 0; j < k && !collector.Full(); ++j) {
      const std::vector<ExtractorWithFacts>& chi_i = chi[i]->extractors;
      const std::vector<ExtractorWithFacts>& chi_j = chi[j]->extractors;
      std::vector<std::pair<size_t, size_t>> pairs;
      pairs.reserve(chi_i.size() * chi_j.size());
      for (size_t a = 0; a < chi_i.size(); ++a) {
        for (size_t b = 0; b < chi_j.size(); ++b) {
          pairs.emplace_back(a, b);
        }
      }
      auto depth_of = [](const std::vector<ExtractorWithFacts>& chi_col,
                         size_t idx) {
        return chi_col[idx].extractor.NumConstructs();
      };
      std::stable_sort(
          pairs.begin(), pairs.end(),
          [&](const auto& x, const auto& y) {
            int dx1 = depth_of(chi_i, x.first), dx2 = depth_of(chi_j, x.second);
            int dy1 = depth_of(chi_i, y.first), dy2 = depth_of(chi_j, y.second);
            if (dx1 + dx2 != dy1 + dy2) return dx1 + dx2 < dy1 + dy2;
            return std::abs(dx1 - dx2) < std::abs(dy1 - dy2);
          });
      // The pattern runs over (example, value_i, value_j), so row r reads
      // bit offset[e] + v_i * n_j[e] + v_j, where offset[e] counts the
      // value pairs of earlier examples.
      std::vector<size_t> offset(num_examples, 0);
      size_t pattern_bits = 0;
      for (size_t e = 0; e < num_examples; ++e) {
        offset[e] = pattern_bits;
        pattern_bits +=
            columns[i]->values[e].size() * columns[j]->values[e].size();
      }
      std::vector<size_t> bit_of_row(num_rows);
      for (size_t r = 0; r < num_rows; ++r) {
        const size_t e = static_cast<size_t>(row_example[r]);
        bit_of_row[r] = offset[e] +
                        static_cast<size_t>(row_value_idx[i][r]) *
                            columns[j]->values[e].size() +
                        static_cast<size_t>(row_value_idx[j][r]);
      }
      for (const auto& [pi1, pi2] : pairs) {
        if (collector.Full()) break;
        MITRA_GOV_CHECK(opts.governor, "universe/binary");
        for (CmpOp op : ops) {
          // Equality is symmetric: keep the canonical orientation only.
          if (op == CmpOp::kEq && (j < i || (j == i && pi2 <= pi1))) {
            continue;
          }
          if (op != CmpOp::kEq && i == j && pi1 == pi2) continue;
          MITRA_COUNT("predicate/universe/atoms_considered", 1);
          const ExtractorWithFacts& f1 = chi_i[pi1];
          const ExtractorWithFacts& f2 = chi_j[pi2];
          DynBitset pattern(pattern_bits);
          size_t bit = 0;
          bool any_true = false, any_false = false;
          for (size_t e = 0; e < num_examples; ++e) {
            for (const TargetFacts& a : f1.facts[e]) {
              for (const TargetFacts& b : f2.facts[e]) {
                bool v = EvalNodeNode(op, a, b);
                if (v) pattern.Set(bit);
                ++bit;
                (v ? any_true : any_false) = true;
              }
            }
          }
          if (!any_true || !any_false) {
            MITRA_COUNT("predicate/universe/atoms_const_dropped", 1);
            continue;
          }
          const DynBitset* stored = pattern_dedup.Insert(
              PatternDedup::BinaryTag(i, j), std::move(pattern));
          if (stored == nullptr) {
            MITRA_COUNT("predicate/universe/atoms_deduped", 1);
            continue;
          }
          DynBitset bits = Broadcast(*stored, bit_of_row);
          if (opts.governor != nullptr) {
            MITRA_RETURN_IF_ERROR(opts.governor->ChargeBytes(
                num_rows / 8 + 32, "alloc/universe-atom"));
          }
          Atom a;
          a.lhs_path = f1.extractor;
          a.lhs_col = static_cast<int>(i);
          a.op = op;
          a.rhs_is_const = false;
          a.rhs_path = f2.extractor;
          a.rhs_col = static_cast<int>(j);
          collector.Add(std::move(a), std::move(bits));
        }
      }
    }
  }

  PredicateUniverse universe = collector.Take();
  MITRA_COUNT("predicate/universe/calls", 1);
  MITRA_COUNT("predicate/universe/atoms_kept", universe.atoms.size());
  MITRA_COUNT("predicate/universe/rows", num_rows);
  return universe;
}

}  // namespace mitra::core
