#ifndef MITRA_DSL_EVAL_H_
#define MITRA_DSL_EVAL_H_

#include <optional>
#include <span>
#include <vector>

#include "common/governor.h"
#include "common/status.h"
#include "dsl/ast.h"
#include "hdt/hdt.h"
#include "hdt/table.h"

/// \file eval.h
/// Reference (naive) evaluator implementing the DSL's denotational
/// semantics exactly as given in Figure 7: materialize the cross product
/// of the extracted columns, then filter. The optimized executor
/// (core/executor.h) must agree with this evaluator on every program —
/// that equivalence is property-tested.

namespace mitra::dsl {

/// A tuple of tree nodes — one row of the intermediate table ψ(τ).
using NodeTuple = std::vector<hdt::NodeId>;

/// Evaluates a column extractor on {root(τ)}. Returns the extracted node
/// *set* in document order (ascending NodeId; ids are assigned in
/// preorder, so id order is document order).
std::vector<hdt::NodeId> EvalColumn(const hdt::Hdt& tree,
                                    const ColumnExtractor& pi);

/// Evaluates a column extractor from an arbitrary starting set.
std::vector<hdt::NodeId> EvalColumnFrom(const hdt::Hdt& tree,
                                        const ColumnExtractor& pi,
                                        const std::vector<hdt::NodeId>& start);

/// A node extractor bound to one tree: each child step's tag is resolved
/// to the tree's TagId once, so evaluating it on a node hashes no string.
/// Valid only with the tree it was bound to.
struct BoundNodeExtractor {
  struct Step {
    NodeOp op = NodeOp::kParent;
    /// kChild: the tag's id, or -1 when the tree lacks the tag (the step
    /// is then ⊥ on every node).
    hdt::TagId tag = -1;
    int32_t pos = 0;
  };
  std::vector<Step> steps;
};

BoundNodeExtractor BindNodeExtractor(const hdt::Hdt& tree,
                                     const NodeExtractor& phi);

/// Evaluates a bound node extractor on one node; kInvalidNode encodes ⊥.
hdt::NodeId EvalNodeExtractor(const hdt::Hdt& tree,
                              const BoundNodeExtractor& phi, hdt::NodeId n);

/// An atom bound to one tree: both node extractors bound, and the
/// constant's number parsed once.
struct BoundAtom {
  const Atom* atom = nullptr;  ///< not owned; must outlive the binding
  BoundNodeExtractor lhs_path;
  BoundNodeExtractor rhs_path;
  /// ParseNumber of the constant (constant atoms only).
  std::optional<double> rhs_number;
};

BoundAtom BindAtom(const hdt::Hdt& tree, const Atom& atom);
std::vector<BoundAtom> BindAtoms(const hdt::Hdt& tree,
                                 const std::vector<Atom>& atoms);

/// Whether a leaf holding dictionary value `d` satisfies the constant
/// atom's comparison `d op c` (CompareData semantics, with the leaf's
/// number read from the dictionary).
bool ConstCmpHolds(const hdt::Hdt& tree, const BoundAtom& atom,
                   hdt::DataId d);

/// Evaluates an atomic predicate on a tuple (Fig. 7 comparison rules:
/// leaf-leaf compares data — numerically when both sides parse as numbers,
/// a data-less leaf holding "" — internal-internal supports only `=`,
/// meaning node identity; mixed or ⊥ yields false).
bool EvalAtom(const hdt::Hdt& tree, const BoundAtom& atom,
              const NodeTuple& t);

/// Evaluates a DNF formula over the given bound atom pool.
bool EvalDnf(const hdt::Hdt& tree, const Dnf& f,
             const std::vector<BoundAtom>& atoms, const NodeTuple& t);

/// Resource bounds for naive evaluation.
struct EvalOptions {
  /// Maximum number of intermediate (cross-product) tuples to enumerate
  /// before giving up with kResourceExhausted. Mirrors MITRA's
  /// out-of-memory failure mode on oversized intermediate tables.
  uint64_t max_intermediate_tuples = 10'000'000;
  /// Optional resource governor: cross-product materialization charges
  /// its rows (and their bytes) and checks for cancellation periodically.
  common::Governor* governor = nullptr;
};

/// Hard cap on a program's column count accepted by every evaluator
/// (reference, Fig.-7, optimized executor). Mirrors the parsers'
/// kMaxNestingDepth guard: recursion over columns is bounded by this.
inline constexpr size_t kMaxEvalColumns = 256;

/// Evaluates the full program: data projection of the filtered cross
/// product (the ⟦filter⟧ rule of Fig. 7).
Result<hdt::Table> EvalProgram(const hdt::Hdt& tree, const Program& p,
                               const EvalOptions& opts = {});

/// Like EvalProgram but returns the surviving *node tuples* instead of
/// their data projection (needed for primary/foreign key generation, §6).
/// Binds the program's atoms to `tree` once per call.
Result<std::vector<NodeTuple>> EvalProgramNodeTuples(
    const hdt::Hdt& tree, const Program& p, const EvalOptions& opts = {});

/// The cross product of already-evaluated columns, column 0 outermost
/// (the row order of Fig. 4b); empty when a column is empty. Fails with
/// kResourceExhausted past kMaxEvalColumns columns, or once the product
/// of the first columns, taken in order, exceeds
/// `opts.max_intermediate_tuples`. The governor is charged the product's
/// rows and bytes before it is built and checked every 4096 tuples. The
/// predicate learner calls it on the memo's columns to build E+/E-.
Result<std::vector<NodeTuple>> CrossProduct(
    const std::vector<const std::vector<hdt::NodeId>*>& columns,
    const EvalOptions& opts = {});

/// Materializes the intermediate table ψ(τ) = π1(τ) × … × πk(τ) without
/// filtering: evaluates the columns in order, up to the first empty one,
/// and returns their CrossProduct.
Result<std::vector<NodeTuple>> EvalCrossProduct(
    const hdt::Hdt& tree, const std::vector<ColumnExtractor>& columns,
    const EvalOptions& opts = {});

/// Projects node tuples to their data strings (nil data → empty string).
hdt::Row ProjectData(const hdt::Hdt& tree, const NodeTuple& t);

/// Appends `t`'s data projection to `out` as one row, each node's leaf
/// bytes copied straight into the table's arena (nil data → empty cell):
/// ProjectData without the owned row.
Status AppendProjectedRow(const hdt::Hdt& tree,
                          std::span<const hdt::NodeId> t, hdt::Table* out);

}  // namespace mitra::dsl

#endif  // MITRA_DSL_EVAL_H_
