#ifndef MITRA_CORE_PREDICATE_LEARNER_H_
#define MITRA_CORE_PREDICATE_LEARNER_H_

#include <vector>

#include "common/status.h"
#include "core/example.h"
#include "core/predicate_universe.h"
#include "dsl/ast.h"
#include "dsl/eval.h"

/// \file predicate_learner.h
/// Phase 2 of the synthesis algorithm: LearnPredicate (Algorithm 3).
/// Given a candidate table extractor ψ, partitions the intermediate rows
/// into positive examples E⁺ (data projection occurs in the output table)
/// and negative examples E⁻ (spurious tuples), finds a *minimum* set Φ* of
/// atomic predicates distinguishing every (e⁺, e⁻) pair via exact set
/// cover (the paper's 0-1 ILP, Algorithm 4), and then a smallest DNF over
/// Φ* via Quine-McCluskey — exactly the paper's pipeline.

namespace mitra::core {

struct PredicateLearnOptions {
  PredicateUniverseOptions universe;
  dsl::EvalOptions eval;
  /// Use the exact branch & bound min-cover (paper behaviour). The greedy
  /// alternative exists for ablation A2.
  bool exact_cover = true;
};

/// A learned predicate: the DNF formula and the atoms it references
/// (already compacted — `atoms` contains exactly the used atoms).
struct LearnedPredicate {
  std::vector<dsl::Atom> atoms;
  dsl::Dnf formula;
  /// Statistics for the evaluation harness.
  size_t universe_size = 0;      ///< |Φ| after dedup
  size_t num_positive = 0;       ///< |E⁺| (rows)
  size_t num_negative = 0;       ///< |E⁻| (rows)
  bool cover_optimal = true;     ///< min-cover proven optimal
};

/// Learns φ such that filter(ψ, λt.φ) reproduces every example's output
/// table. Fails with kSynthesisFailure when no classifier exists in the
/// universe (the paper's ⊥ case, Alg. 1 line 10). ψ's columns, their node
/// extractors and the constant pool are read through `memo` (see
/// extractor_memo.h), which one synthesis run shares across its ψ; one memo
/// serves one `examples` and one `opts`.
Result<LearnedPredicate> LearnPredicate(
    const Examples& examples, const std::vector<dsl::ColumnExtractor>& psi,
    ExtractorMemoCache& memo, const PredicateLearnOptions& opts = {});

}  // namespace mitra::core

#endif  // MITRA_CORE_PREDICATE_LEARNER_H_
