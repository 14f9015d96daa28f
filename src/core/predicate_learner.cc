#include "core/predicate_learner.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "common/strings.h"
#include "core/extractor_memo.h"
#include "core/qm.h"
#include "core/set_cover.h"
#include "obs/obs.h"

namespace mitra::core {

namespace {

/// A class of intermediate rows with identical truth signatures over the
/// whole predicate universe. Classifiers cannot (and need not) tell apart
/// rows within one class.
struct SignatureClass {
  size_t representative;       ///< global row index
  bool contains_negative = false;
  bool contains_positive = false;
};

/// A candidate classifier produced by one of the learning modes.
struct Candidate {
  std::vector<int> atoms;  ///< universe indices
  dsl::Dnf formula;        ///< over positions in `atoms`
  bool cover_optimal = true;
  /// Number of intermediate rows the classifier keeps. Among equal-size
  /// classifiers, the *tighter* one generalizes better: a data-level
  /// equality that coincidentally matches extra witnesses in the example
  /// will mis-pair rows at scale, while the structural (identity) join
  /// keeps exactly one witness per output row.
  size_t kept_rows = 0;

  int NumAtoms() const { return static_cast<int>(atoms.size()); }
  int NumLiterals() const {
    int n = 0;
    for (const auto& c : formula.clauses) n += static_cast<int>(c.size());
    return n;
  }
  bool BetterThan(const Candidate& o) const {
    if (NumAtoms() != o.NumAtoms()) return NumAtoms() < o.NumAtoms();
    if (kept_rows != o.kept_rows) return kept_rows < o.kept_rows;
    return NumLiterals() < o.NumLiterals();
  }
};

/// Classifier learning over hard example sets: exact min-cover (Alg. 4)
/// followed by Quine-McCluskey (Alg. 3 lines 11-14). `on_classes` and
/// `off_classes` index into `classes`.
Result<Candidate> LearnClassifier(const PredicateUniverse& universe,
                                  const std::vector<SignatureClass>& classes,
                                  const std::vector<size_t>& on_classes,
                                  const std::vector<size_t>& off_classes,
                                  bool exact_cover,
                                  common::Governor* governor) {
  MITRA_SPAN(span, "learner/classifier");
  MITRA_GOV_CHECK(governor, "learner/classifier");
  // Order atoms cheapest-first so cover tie-breaking is Occam-friendly.
  std::vector<int> atom_order(universe.atoms.size());
  for (size_t a = 0; a < atom_order.size(); ++a) {
    atom_order[a] = static_cast<int>(a);
  }
  std::stable_sort(atom_order.begin(), atom_order.end(), [&](int a, int b) {
    return universe.atoms[static_cast<size_t>(a)].NumConstructs() <
           universe.atoms[static_cast<size_t>(b)].NumConstructs();
  });

  // Each atom's truth over the on- and the off-class representatives.
  const size_t num_on = on_classes.size();
  const size_t num_off = off_classes.size();
  auto truth_over = [&](const DynBitset& tv,
                        const std::vector<size_t>& class_ids) {
    DynBitset out(class_ids.size());
    for (size_t c = 0; c < class_ids.size(); ++c) {
      if (tv.Test(classes[class_ids[c]].representative)) out.Set(c);
    }
    return out;
  };
  struct AtomTruth {
    int atom;
    DynBitset on, off;
  };

  // For covering purposes only an atom's truth pattern over the class
  // representatives matters — and a pattern and its complement
  // distinguish exactly the same (pos, neg) pairs. Dedup accordingly
  // (keeping the cheapest atom), which typically shrinks the ILP from
  // thousands of candidate predicates to a few hundred.
  std::vector<AtomTruth> kept;
  {
    std::unordered_map<uint64_t, std::vector<DynBitset>> seen;
    for (int ai : atom_order) {
      const DynBitset& tv = universe.truth[static_cast<size_t>(ai)];
      AtomTruth truth{ai, truth_over(tv, on_classes),
                      truth_over(tv, off_classes)};
      // The pattern over on-classes then off-classes, canonicalized under
      // complement: flipped so bit 0 is clear.
      DynBitset pattern(num_on + num_off);
      pattern.OrAt(truth.on, 0);
      pattern.OrAt(truth.off, num_on);
      if (pattern.Test(0)) pattern.Flip();
      auto& bucket = seen[pattern.Hash()];
      if (std::find(bucket.begin(), bucket.end(), pattern) != bucket.end()) {
        continue;
      }
      bucket.push_back(std::move(pattern));
      kept.push_back(std::move(truth));
    }
  }

  // Element p·|off| + n is the pair (on_classes[p], off_classes[n]); an
  // atom separates it iff its truth differs on the two. So on-class p's
  // block of the atom's cover set is the atom's truth over the off
  // classes, complemented when the atom holds on p.
  const size_t num_elements = num_on * num_off;
  std::vector<DynBitset> cover_sets;
  cover_sets.reserve(kept.size());
  atom_order.clear();
  for (const AtomTruth& truth : kept) {
    DynBitset off_false = truth.off;
    off_false.Flip();
    DynBitset cs(num_elements);
    for (size_t p = 0; p < num_on; ++p) {
      cs.OrAt(truth.on.Test(p) ? off_false : truth.off, p * num_off);
    }
    cover_sets.push_back(std::move(cs));
    atom_order.push_back(truth.atom);
  }

  SetCoverOptions sc;
  sc.exact = exact_cover;
  sc.governor = governor;
  MITRA_ASSIGN_OR_RETURN(SetCoverResult cover,
                         MinSetCover(cover_sets, num_elements, sc));

  Candidate cand;
  cand.cover_optimal = cover.optimal;
  for (int idx : cover.chosen) {
    cand.atoms.push_back(atom_order[static_cast<size_t>(idx)]);
  }
  if (cand.atoms.size() > 30) {
    return Status::ResourceExhausted("classifier needs more than 30 atoms");
  }

  std::vector<uint32_t> on_rows, off_rows;
  auto assignment_of = [&](size_t cls) {
    uint32_t assignment = 0;
    for (size_t v = 0; v < cand.atoms.size(); ++v) {
      if (universe.truth[static_cast<size_t>(cand.atoms[v])].Test(
              classes[cls].representative)) {
        assignment |= (uint32_t{1} << v);
      }
    }
    return assignment;
  };
  for (size_t c : on_classes) on_rows.push_back(assignment_of(c));
  for (size_t c : off_classes) off_rows.push_back(assignment_of(c));
  MITRA_ASSIGN_OR_RETURN(
      VarDnf var_dnf,
      MinimizeDnf(static_cast<int>(cand.atoms.size()), on_rows, off_rows));

  for (const auto& clause : var_dnf) {
    std::vector<dsl::Literal> lits;
    lits.reserve(clause.size());
    for (const VarLiteral& vl : clause) {
      lits.push_back(dsl::Literal{vl.var, vl.negated});
    }
    cand.formula.clauses.push_back(std::move(lits));
  }
  return cand;
}

}  // namespace

Result<LearnedPredicate> LearnPredicate(
    const Examples& examples, const std::vector<dsl::ColumnExtractor>& psi,
    ExtractorMemoCache& memo, const PredicateLearnOptions& opts) {
  common::Governor* const gov = opts.universe.governor;
  MITRA_GOV_CHECK(gov, "learner/start");
  // --- intermediate tables & E+/E- split (Alg. 3 lines 5-10) -------------
  // Column extractions come from the cross-candidate cache; only the
  // odometer product is rebuilt per ψ.
  std::vector<std::shared_ptr<const ColumnEvalEntry>> entries;
  entries.reserve(psi.size());
  for (const dsl::ColumnExtractor& pi : psi) {
    entries.push_back(memo.Columns(examples, pi));
  }
  std::vector<std::vector<dsl::NodeTuple>> rows_per_example;
  rows_per_example.reserve(examples.size());
  for (size_t e = 0; e < examples.size(); ++e) {
    std::vector<const std::vector<hdt::NodeId>*> cols;
    cols.reserve(psi.size());
    for (const auto& entry : entries) cols.push_back(&entry->values[e]);
    MITRA_ASSIGN_OR_RETURN(std::vector<dsl::NodeTuple> rows,
                           dsl::CrossProduct(cols, opts.eval));
    rows_per_example.push_back(std::move(rows));
  }

  size_t num_rows = 0;
  for (const auto& rows : rows_per_example) num_rows += rows.size();

  // Witness groups: each (example, output row) must retain at least one
  // matching node tuple after filtering. group_of[r] == -1 marks E-.
  std::vector<int> group_of(num_rows, -1);
  std::vector<std::vector<size_t>> groups;  // group → global row indices
  size_t num_positive = 0;
  {
    size_t r = 0;
    for (size_t e = 0; e < examples.size(); ++e) {
      const hdt::Table& target = *examples[e].table;
      std::map<hdt::Row, int> group_ids;
      for (const hdt::Row& row : target.rows()) {
        if (!group_ids.count(row)) {
          group_ids.emplace(row, static_cast<int>(groups.size()));
          groups.emplace_back();
        }
      }
      for (const dsl::NodeTuple& t : rows_per_example[e]) {
        hdt::Row row = dsl::ProjectData(*examples[e].tree, t);
        auto it = group_ids.find(row);
        if (it != group_ids.end()) {
          group_of[r] = it->second;
          groups[static_cast<size_t>(it->second)].push_back(r);
          ++num_positive;
        }
        ++r;
      }
      for (const auto& [row, gid] : group_ids) {
        if (groups[static_cast<size_t>(gid)].empty()) {
          return Status::SynthesisFailure(
              "table extractor does not cover every output row of example " +
              std::to_string(e));
        }
      }
    }
  }
  size_t num_negative = num_rows - num_positive;

  LearnedPredicate out;
  out.num_positive = num_positive;
  out.num_negative = num_negative;

  if (num_negative == 0) {
    out.formula = dsl::Dnf::True();  // nothing spurious to filter
    return out;
  }
  if (groups.empty()) {
    out.formula = dsl::Dnf::False();  // empty output table
    return out;
  }

  // --- predicate universe (Alg. 3 line 4) ---------------------------------
  MITRA_ASSIGN_OR_RETURN(
      PredicateUniverse universe,
      ConstructPredicateUniverse(examples, psi, rows_per_example, memo,
                                 opts.universe));
  out.universe_size = universe.atoms.size();

  // --- signature classes ---------------------------------------------------
  // Rows with identical truth over all of Φ are interchangeable; collapse
  // them so the cover/ILP instances stay small.
  std::vector<uint64_t> sig_hash(num_rows, 0xcbf29ce484222325ULL);
  for (const DynBitset& tv : universe.truth) {
    MITRA_GOV_CHECK(gov, "learner/signatures");
    for (size_t r = 0; r < num_rows; ++r) {
      sig_hash[r] =
          HashCombine(sig_hash[r], tv.Test(r) ? 0x9e37ULL : 0x79b9ULL);
    }
  }
  auto same_signature = [&](size_t a, size_t b) {
    for (const DynBitset& tv : universe.truth) {
      if (tv.Test(a) != tv.Test(b)) return false;
    }
    return true;
  };

  std::vector<SignatureClass> classes;
  std::vector<int> class_of(num_rows);
  {
    std::unordered_map<uint64_t, std::vector<int>> by_hash;
    for (size_t r = 0; r < num_rows; ++r) {
      auto& bucket = by_hash[sig_hash[r]];
      int found = -1;
      for (int ci : bucket) {
        if (same_signature(classes[static_cast<size_t>(ci)].representative,
                           r)) {
          found = ci;
          break;
        }
      }
      if (found < 0) {
        found = static_cast<int>(classes.size());
        bucket.push_back(found);
        classes.push_back(SignatureClass{r, false, false});
      }
      class_of[r] = found;
      if (group_of[r] >= 0) {
        classes[static_cast<size_t>(found)].contains_positive = true;
      } else {
        classes[static_cast<size_t>(found)].contains_negative = true;
      }
    }
  }

  std::vector<size_t> neg_classes;
  for (size_t c = 0; c < classes.size(); ++c) {
    if (classes[c].contains_negative) neg_classes.push_back(c);
  }
  // A witness is salvageable iff its class contains no negative row.
  auto salvageable = [&](size_t r) {
    return !classes[static_cast<size_t>(class_of[r])].contains_negative;
  };
  bool all_groups_salvageable = true;
  bool any_multi_witness = false;
  for (const auto& g : groups) {
    if (g.size() > 1) any_multi_witness = true;
    bool ok = false;
    for (size_t r : g) ok = ok || salvageable(r);
    if (!ok) all_groups_salvageable = false;
  }
  if (!all_groups_salvageable) {
    return Status::SynthesisFailure(
        "some output row's every witness tuple is indistinguishable from a "
        "spurious tuple by every atomic predicate in the universe");
  }

  std::optional<Candidate> best;

  // --- Mode 1: strict classification --------------------------------------
  // Every data-matching tuple must be kept (the literal reading of Alg. 3).
  // Feasible iff no witness shares a signature class with a negative.
  {
    bool strict_ok = true;
    for (const auto& g : groups) {
      for (size_t r : g) strict_ok = strict_ok && salvageable(r);
    }
    if (strict_ok) {
      std::vector<size_t> on_classes;
      for (size_t c = 0; c < classes.size(); ++c) {
        if (classes[c].contains_positive) on_classes.push_back(c);
      }
      auto cand = LearnClassifier(universe, classes, on_classes, neg_classes,
                                  opts.exact_cover, gov);
      // Governor overruns trip the token; propagate those (the run is
      // dying), but let per-candidate failures (e.g. ">30 atoms") fall
      // through to the other modes as before.
      if (!cand.ok() && gov != nullptr && gov->token()->cancelled()) {
        return cand.status();
      }
      if (cand.ok()) {
        cand->kept_rows = num_positive;  // strict keeps every witness
        best = std::move(cand).value();
      }
    }
  }

  // --- Mode 2: conjunctive witness cover -----------------------------------
  // When rows have several witnesses (e.g. symmetric links, §2), the
  // filter only needs to keep *one* witness per output row. Search for a
  // smallest conjunction of literals that keeps ≥1 witness per group and
  // excludes every negative — this recovers the paper's φ1 ∧ φ2 for the
  // motivating example instead of a larger symmetric formula.
  if (any_multi_witness) {
    // Candidate literals: atoms (and their negations) that alone keep at
    // least one witness in every group.
    struct Lit {
      int atom;
      bool negated;
      DynBitset truth;  // over rows
    };
    std::vector<Lit> lits;
    auto keeps_all_groups = [&](const DynBitset& tv) {
      for (const auto& g : groups) {
        bool alive = false;
        for (size_t r : g) {
          if (tv.Test(r)) {
            alive = true;
            break;
          }
        }
        if (!alive) return false;
      }
      return true;
    };
    auto kills_some_negative = [&](const DynBitset& tv) {
      for (size_t r = 0; r < num_rows; ++r) {
        if (group_of[r] < 0 && !tv.Test(r)) return true;
      }
      return false;
    };
    // Cheapest atoms first so the DFS discovers low-cost conjunctions.
    std::vector<int> atom_order(universe.atoms.size());
    for (size_t a = 0; a < atom_order.size(); ++a) {
      atom_order[a] = static_cast<int>(a);
    }
    std::stable_sort(atom_order.begin(), atom_order.end(),
                     [&](int a, int b) {
                       return universe.atoms[static_cast<size_t>(a)]
                                  .NumConstructs() <
                              universe.atoms[static_cast<size_t>(b)]
                                  .NumConstructs();
                     });
    constexpr size_t kMaxConjLiterals = 256;
    DynBitset ones(num_rows);
    for (size_t r = 0; r < num_rows; ++r) ones.Set(r);
    for (int ai : atom_order) {
      if (lits.size() >= kMaxConjLiterals) break;
      const DynBitset& tv = universe.truth[static_cast<size_t>(ai)];
      if (keeps_all_groups(tv) && kills_some_negative(tv)) {
        lits.push_back(Lit{ai, false, tv});
      }
      DynBitset neg = tv;
      neg ^= ones;
      if (lits.size() < kMaxConjLiterals && keeps_all_groups(neg) &&
          kills_some_negative(neg)) {
        lits.push_back(Lit{ai, true, std::move(neg)});
      }
    }
    // Count, per literal, how many negatives it kills; sorting by kill
    // count makes greedy-style progress and powers the DFS bound below.
    DynBitset negatives(num_rows);
    for (size_t r = 0; r < num_rows; ++r) {
      if (group_of[r] < 0) negatives.Set(r);
    }
    const size_t total_negatives = negatives.Count();
    std::vector<size_t> kills(lits.size());
    for (size_t li = 0; li < lits.size(); ++li) {
      kills[li] = negatives.CountAndNot(lits[li].truth);
    }
    std::vector<size_t> lit_order(lits.size());
    for (size_t li = 0; li < lits.size(); ++li) lit_order[li] = li;
    std::stable_sort(lit_order.begin(), lit_order.end(),
                     [&](size_t a, size_t b) { return kills[a] > kills[b]; });
    {
      std::vector<Lit> reordered;
      reordered.reserve(lits.size());
      std::vector<size_t> kills_reordered;
      kills_reordered.reserve(lits.size());
      for (size_t li : lit_order) {
        reordered.push_back(std::move(lits[li]));
        kills_reordered.push_back(kills[li]);
      }
      lits = std::move(reordered);
      kills = std::move(kills_reordered);
    }

    auto all_negatives_dead = [&](const DynBitset& alive) {
      DynBitset alive_negs = alive;
      alive_negs &= negatives;
      return alive_negs.None();
    };

    // Allow conjunctions *as large as* the incumbent: at equal atom
    // count the tighter candidate (fewer kept rows) wins.
    const int max_size = best ? std::min(8, best->NumAtoms()) : 8;
    std::vector<int> chosen;
    uint64_t checks = 0;
    constexpr uint64_t kMaxChecks = 200'000;
    bool dfs_cancelled = false;
    // Collect every minimal-size solution (capped) and pick the tightest:
    // several conjunctions of the same size can be consistent, and the
    // one keeping the fewest witnesses generalizes best (identity joins
    // beat coincidental data-equality joins).
    constexpr size_t kMaxSolutions = 64;
    std::vector<std::pair<std::vector<int>, size_t>> solutions;  // (lits, kept)
    std::function<void(size_t, const DynBitset&, int)> dfs =
        [&](size_t start, const DynBitset& alive, int depth) {
          if (solutions.size() >= kMaxSolutions || ++checks > kMaxChecks) {
            return;
          }
          if (gov != nullptr && (checks & 0x3FF) == 0 &&
              !gov->Check("learner/conjunctive-dfs").ok()) {
            dfs_cancelled = true;
            return;
          }
          if (dfs_cancelled) return;
          if (all_negatives_dead(alive)) {
            solutions.emplace_back(chosen, alive.Count());
            return;
          }
          if (depth == 0 || start >= lits.size()) return;
          // Bound: literals are sorted by kill count, so the best any
          // `depth` remaining literals can do is depth × kills[start].
          DynBitset alive_negs = alive;
          alive_negs &= negatives;
          size_t remaining = alive_negs.Count();
          if (static_cast<size_t>(depth) * kills[start] < remaining) return;
          (void)total_negatives;
          for (size_t li = start;
               li < lits.size() && solutions.size() < kMaxSolutions; ++li) {
            if (static_cast<size_t>(depth) * kills[li] < remaining) break;
            DynBitset next = alive;
            next &= lits[li].truth;
            if (!keeps_all_groups(next)) continue;
            chosen.push_back(static_cast<int>(li));
            dfs(li + 1, next, depth - 1);
            chosen.pop_back();
          }
        };
    // Iterative deepening: find the smallest conjunction size first.
    for (int size = 1; size <= max_size && solutions.empty(); ++size) {
      DynBitset all_alive(num_rows);
      for (size_t r = 0; r < num_rows; ++r) all_alive.Set(r);
      checks = 0;
      dfs(0, all_alive, size);
      if (dfs_cancelled) break;
    }
    MITRA_GOV_CHECK(gov, "learner/conjunctive-dfs");
    std::optional<std::vector<int>> found;
    if (!solutions.empty()) {
      size_t best_idx = 0;
      for (size_t i = 1; i < solutions.size(); ++i) {
        if (solutions[i].second < solutions[best_idx].second) best_idx = i;
      }
      found = solutions[best_idx].first;
    }
    if (found) {
      Candidate cand;
      DynBitset alive(num_rows);
      for (size_t r = 0; r < num_rows; ++r) alive.Set(r);
      for (int li : *found) {
        alive &= lits[static_cast<size_t>(li)].truth;
      }
      cand.kept_rows = alive.Count();
      std::vector<dsl::Literal> clause;
      for (int li : *found) {
        int pos = -1;
        for (size_t a = 0; a < cand.atoms.size(); ++a) {
          if (cand.atoms[a] == lits[static_cast<size_t>(li)].atom) {
            pos = static_cast<int>(a);
          }
        }
        if (pos < 0) {
          pos = static_cast<int>(cand.atoms.size());
          cand.atoms.push_back(lits[static_cast<size_t>(li)].atom);
        }
        clause.push_back(
            dsl::Literal{pos, lits[static_cast<size_t>(li)].negated});
      }
      cand.formula.clauses.push_back(std::move(clause));
      if (!best || cand.BetterThan(*best)) best = std::move(cand);
    }
  }

  // --- Mode 3: canonical witness --------------------------------------------
  // Fallback when strict is infeasible and no small conjunction exists:
  // keep the first salvageable witness of each group, leave the other
  // witnesses as don't-cares, and learn a full DNF classifier.
  if (!best) {
    std::set<size_t> on_class_set;
    for (const auto& g : groups) {
      for (size_t r : g) {
        if (salvageable(r)) {
          on_class_set.insert(static_cast<size_t>(class_of[r]));
          break;
        }
      }
    }
    std::vector<size_t> on_classes(on_class_set.begin(), on_class_set.end());
    auto cand = LearnClassifier(universe, classes, on_classes, neg_classes,
                                opts.exact_cover, gov);
    if (!cand.ok() && gov != nullptr && gov->token()->cancelled()) {
      return cand.status();
    }
    if (!cand.ok()) {
      return Status::SynthesisFailure(
          "no filtering predicate over the universe separates witnesses "
          "from spurious tuples: " +
          cand.status().message());
    }
    size_t kept = 0;
    {
      std::set<size_t> on(on_classes.begin(), on_classes.end());
      for (size_t r = 0; r < num_rows; ++r) {
        if (on.count(static_cast<size_t>(class_of[r]))) ++kept;
      }
    }
    cand->kept_rows = kept;
    best = std::move(cand).value();
  }

  // --- compact the winning candidate ---------------------------------------
  out.cover_optimal = best->cover_optimal;
  for (int idx : best->atoms) {
    out.atoms.push_back(universe.atoms[static_cast<size_t>(idx)]);
  }
  out.formula = std::move(best->formula);
  if (out.formula.clauses.empty()) out.formula = dsl::Dnf::False();
  return out;
}

}  // namespace mitra::core
