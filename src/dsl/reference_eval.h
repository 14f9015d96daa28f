#ifndef MITRA_DSL_REFERENCE_EVAL_H_
#define MITRA_DSL_REFERENCE_EVAL_H_

#include <vector>

#include "common/status.h"
#include "dsl/ast.h"
#include "dsl/eval.h"
#include "hdt/hdt.h"
#include "hdt/table.h"

/// \file reference_eval.h
/// A deliberately naive, *independent* implementation of the DSL's
/// denotational semantics (Fig. 7) used purely as a differential-testing
/// oracle. It deliberately shares no evaluation code with dsl/eval.cc or
/// core/executor.cc:
///  - navigation compares tag *names* by string instead of interned ids;
///  - positional lookup re-counts same-tag siblings instead of reading the
///    precomputed Hdt::Pos();
///  - node sets are kept in std::set, the cross product is enumerated
///    recursively, and data comparison re-derives the numeric-vs-lexical
///    rule from strtod directly.
/// The optimized executor, the parallel paths, and dsl/eval must all agree
/// with this evaluator on every (tree, program) pair — that is the
/// invariant the differential property suite enforces.

namespace mitra::dsl {

struct ReferenceEvalOptions {
  /// Cap on enumerated cross-product tuples, mirroring EvalOptions.
  uint64_t max_intermediate_tuples = 10'000'000;
};

/// Evaluates a column extractor on {root(τ)} (document order).
std::vector<hdt::NodeId> ReferenceEvalColumn(const hdt::Hdt& tree,
                                             const ColumnExtractor& pi);

/// Evaluates a node extractor on one node; kInvalidNode encodes ⊥.
hdt::NodeId ReferenceEvalNodeExtractor(const hdt::Hdt& tree,
                                       const NodeExtractor& phi,
                                       hdt::NodeId n);

/// Evaluates an atomic predicate on a tuple.
bool ReferenceEvalAtom(const hdt::Hdt& tree, const Atom& atom,
                       const NodeTuple& t);

/// Evaluates the full program, returning the surviving node tuples in
/// cross-product order.
Result<std::vector<NodeTuple>> ReferenceEvalProgramNodeTuples(
    const hdt::Hdt& tree, const Program& p,
    const ReferenceEvalOptions& opts = {});

/// Evaluates the full program to its data-projected table.
Result<hdt::Table> ReferenceEvalProgram(const hdt::Hdt& tree,
                                        const Program& p,
                                        const ReferenceEvalOptions& opts = {});

}  // namespace mitra::dsl

#endif  // MITRA_DSL_REFERENCE_EVAL_H_
