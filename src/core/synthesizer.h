#ifndef MITRA_CORE_SYNTHESIZER_H_
#define MITRA_CORE_SYNTHESIZER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/status.h"
#include "core/column_learner.h"
#include "core/example.h"
#include "core/predicate_learner.h"
#include "dsl/ast.h"
#include "dsl/eval.h"

/// \file synthesizer.h
/// The top-level synthesis algorithm LearnTransformation (Algorithm 1):
///
///   1. learn a candidate extractor set Πj per output column (§5.1);
///   2. iterate table extractors ψ ∈ Π1 × … × Πk in increasing cost;
///   3. for each ψ, learn a filtering predicate φ (§5.2);
///   4. among all consistent programs, return the one minimizing the
///      Occam cost θ (fewest atoms, then fewest extractor constructs).
///
/// Every returned program is verified against all examples before being
/// accepted (Theorem 3's soundness, checked end-to-end).

namespace mitra::core {

struct SynthesisOptions {
  ColumnLearnOptions column;
  PredicateLearnOptions predicate;
  /// Cap on the number of table extractors ψ explored (cheapest-first).
  size_t max_table_extractors = 64;
  /// Stop after this many consistent programs have been found and ranked
  /// (ψ are explored cheapest-first, so later candidates rarely win on
  /// the θ ranking; the paper's running example found 4).
  size_t max_consistent_programs = 6;
  /// Wall-clock budget; the paper used 120 s for the database experiment.
  /// Folded into `limits.time_limit_seconds` when that one is unset, so
  /// existing callers keep working unchanged.
  double time_limit_seconds = 120.0;
  /// Aggregate resource budgets (states, rows, memory, time) enforced
  /// cooperatively through a Governor threaded into every phase. The
  /// per-phase caps in `column`/`predicate` remain the *deterministic*
  /// enforcement layer; these are global guards whose exact trip point
  /// may vary with thread count but always yields kResourceExhausted.
  common::ResourceLimits limits;
  /// External governor (not owned; must outlive the call). When null,
  /// LearnTransformation creates one per call from `limits` (with
  /// `time_limit_seconds` as its deadline). Supplying one lets a caller
  /// — e.g. the migrator — share a deadline and cancellation token
  /// across several synthesis runs; `limits`/`time_limit_seconds` are
  /// then ignored in favour of the supplied governor's.
  common::Governor* governor = nullptr;
  /// Worker threads for Phase 1 (the k independent per-column learners)
  /// and Phase 2 (wave-based evaluation of candidate table extractors).
  /// 1 = no pool; 0 = hardware concurrency. Every value synthesizes the
  /// *same* program: waves are popped in the sequential frontier order
  /// and merged back in that order, so ranking, pruning, and stopping
  /// decisions replay the single-threaded run exactly (modulo the
  /// wall-clock time limit, which is inherently timing-dependent). Phase 1
  /// learns every column at every value, past a failing one too, and
  /// returns the first failing column's error in column order, so it does
  /// the same work (and counts the same dfa/* and synth/phase1/* metrics)
  /// at any thread count. At 1 thread a failing run's governor usage thus
  /// includes the columns after the failing one, as it does at N.
  int num_threads = 1;
};

/// Per-synthesis statistics, reported by the evaluation harness.
struct SynthesisStats {
  std::vector<size_t> candidates_per_column;
  size_t table_extractors_tried = 0;
  size_t table_extractors_consistent = 0;
  size_t max_universe_size = 0;
  /// Cross-candidate memo cache traffic (extractor_memo.h). The memo is
  /// scoped to one LearnTransformation call and always on.
  size_t memo_hits = 0;
  size_t memo_misses = 0;
  double seconds = 0.0;
  /// Governor accounting for the run (all-zero when an external governor
  /// was supplied — its owner reads the shared usage directly).
  common::BudgetUsage usage;
  /// Observability snapshot (ISSUE 7): per-run delta of every `obs`
  /// counter that moved during this LearnTransformation call, keyed by
  /// the `layer/phase/name` scheme (see DESIGN.md). The underlying
  /// registry is process-global, so concurrent synthesis runs in other
  /// threads mix into the delta; single-run callers (the CLI, benches,
  /// tests) get exact per-run numbers. Empty when MITRA_OBS=0.
  std::map<std::string, std::uint64_t> metrics;
};

struct SynthesisResult {
  dsl::Program program;
  SynthesisStats stats;
};

/// Synthesizes the simplest DSL program consistent with all examples.
/// Fails with kSynthesisFailure if no explored program is consistent and
/// kResourceExhausted on budget overrun with no solution found.
Result<SynthesisResult> LearnTransformation(const Examples& examples,
                                            const SynthesisOptions& opts = {});

/// Convenience wrapper: single example.
Result<SynthesisResult> LearnTransformation(const hdt::Hdt& tree,
                                            const hdt::Table& table,
                                            const SynthesisOptions& opts = {});

/// Best-effort synthesis (the paper's §9 future work): when no DSL
/// program satisfies *all* examples, return a program satisfying as many
/// as possible, together with the indices it satisfies. Subsets are
/// explored largest-first; a program found for a subset is additionally
/// checked against the left-out examples (it may satisfy them anyway).
struct BestEffortResult {
  dsl::Program program;
  /// Indices into the input example vector that the program reproduces.
  std::vector<size_t> satisfied;
  SynthesisStats stats;
};

Result<BestEffortResult> LearnBestEffortTransformation(
    const Examples& examples, const SynthesisOptions& opts = {});

/// `table`'s rows deduplicated and sorted: the row set MatchRowSet
/// compares against.
hdt::Table RowSet(const hdt::Table& table);

/// The check behind every program acceptance (synthesis, best effort, a
/// program-cache hit): evaluates `p` on `tree` and returns its node tuples
/// when their data projection equals `want_set` as a row set (output
/// tables are compared as sets, since the cross-product semantics can
/// produce benign duplicates when distinct node tuples project to the same
/// data row). `want_set` must be a RowSet. Fails with kSynthesisFailure
/// when the row sets differ, and with the evaluator's error when
/// evaluation fails.
Result<std::vector<dsl::NodeTuple>> MatchRowSet(const hdt::Hdt& tree,
                                                const dsl::Program& p,
                                                const hdt::Table& want_set,
                                                const dsl::EvalOptions& eval);

}  // namespace mitra::core

#endif  // MITRA_CORE_SYNTHESIZER_H_
