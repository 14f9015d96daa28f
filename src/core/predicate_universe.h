#ifndef MITRA_CORE_PREDICATE_UNIVERSE_H_
#define MITRA_CORE_PREDICATE_UNIVERSE_H_

#include <vector>

#include "common/status.h"
#include "core/bitset.h"
#include "core/example.h"
#include "core/node_extractor_enum.h"
#include "dsl/ast.h"
#include "dsl/eval.h"

/// \file predicate_universe.h
/// Construction of the finite universe Φ of atomic predicates (Fig. 10,
/// rules 4-5) for a candidate table extractor ψ = π1 × … × πk, together
/// with each atom's truth vector over the intermediate-table rows of all
/// examples. The truth vectors drive both FindMinCover (Alg. 4) and the
/// final truth table (Alg. 3 lines 12-14).
///
/// Engineering notes (behaviour-preserving optimizations):
///  - an atom referencing t[i] (and t[j]) has truth determined by the
///    node(s) in those tuple positions alone, so truth is evaluated once
///    per column value (pair) into a packed pattern, in (example,
///    value[, value]) order, and each row reads its bit from that
///    pattern;
///  - column values, node extractors with their target facts and the
///    constant pool come from the caller's ExtractorMemoCache, so the ψ
///    candidates of one synthesis run share them;
///  - atoms with identical truth vectors are merged, keeping the cheapest
///    (they are interchangeable for classification; Occam prefers cheap);
///  - atoms with constant truth (all rows true, or all false) are dropped:
///    they can never distinguish a positive from a negative example.

namespace mitra::core {

class ExtractorMemoCache;

struct PredicateUniverseOptions {
  NodeExtractorEnumOptions node_enum;
  /// Node extractors per column actually used to build atoms (shallowest
  /// first after behavioral dedup). Guards the |χi|² blowup of rule (5).
  size_t max_extractors_per_column = 48;
  /// Cap on constants used by rule (4) (first-seen order in the trees).
  size_t max_constants = 64;
  /// Generate ordered comparisons (<, <=) in addition to equality. The
  /// remaining operators are derivable: ≠ via ¬, >/≥ via operand swap or
  /// negation, which the DNF learner exploits.
  bool use_inequalities = true;
  /// Hard cap on surviving (deduped) atoms.
  size_t max_atoms = 20'000;
  /// Optional resource governor: rule-4/5 loops check it per candidate
  /// atom batch and charge bytes for every kept truth vector.
  common::Governor* governor = nullptr;
};

/// The constructed universe: atoms[a] has truth vector truth[a] whose bit
/// r is the atom's value on the r'th intermediate row (rows are the
/// concatenation of all examples' cross products, in order).
struct PredicateUniverse {
  std::vector<dsl::Atom> atoms;
  std::vector<DynBitset> truth;
  /// Total intermediate rows (= each truth vector's size).
  size_t num_rows = 0;
};

/// Builds Φ for table extractor `psi`. `rows_per_example[e]` must be the
/// materialized cross product ⟦ψ⟧ on example e (from dsl::EvalCrossProduct).
/// `memo` supplies the per-column work (see extractor_memo.h); one memo
/// serves one `examples` and one `opts`.
Result<PredicateUniverse> ConstructPredicateUniverse(
    const Examples& examples, const std::vector<dsl::ColumnExtractor>& psi,
    const std::vector<std::vector<dsl::NodeTuple>>& rows_per_example,
    ExtractorMemoCache& memo, const PredicateUniverseOptions& opts = {});

}  // namespace mitra::core

#endif  // MITRA_CORE_PREDICATE_UNIVERSE_H_
