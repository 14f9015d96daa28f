#ifndef MITRA_CORE_EXECUTOR_H_
#define MITRA_CORE_EXECUTOR_H_

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/single_flight.h"
#include "common/status.h"
#include "dsl/ast.h"
#include "dsl/eval.h"
#include "hdt/hdt.h"
#include "hdt/table.h"

/// \file executor.h
/// Optimized program execution (§6 "Program optimization", Appendix C).
///
/// The naive semantics materializes the full cross product π1 × … × πk and
/// filters afterwards. This executor instead plans each DNF clause as a
/// nested-loop enumeration with:
///  - each column evaluated once and cached (the paper's memoization of
///    shared computations);
///  - unary literals applied as upfront column filters;
///  - every literal checked at the outermost loop level where all its
///    columns are bound (early filtering);
///  - one positive equality literal per level used as a *hash join*: the
///    level's candidates are indexed by the literal's key so enumeration
///    probes instead of scanning — this subsumes Appendix C's
///    shared-prefix rewriting (both avoid enumerating pairs that violate
///    the equality; the hash index additionally works when the equated
///    extractors do not share a syntactic prefix).
///
/// Rows stay flat: the join index is an open-addressing slot table over
/// one CSR array of candidates, the enumeration appends each tuple's ids
/// to one arity-strided buffer per chunk (NodeTable), and Execute writes
/// leaf bytes straight into the table's arena, so nothing is allocated per
/// key, tuple or cell.
///
/// Equivalence with the naive Fig.-7 evaluator is property-tested.

namespace mitra::common {
class ThreadPool;
}  // namespace mitra::common

namespace mitra::core {

/// Cross-program column cache — the paper's §9 future-work optimization:
/// when several synthesized programs run over the *same* document (one
/// per database table), they share column extractions (e.g. every IMDB
/// table program scans `descendants(s, movies)`). A cache is built for
/// one tree and must outlive the executor calls that use it;
/// `ExecuteNodes` rejects a cache built for another tree.
///
/// Thread-safe and single-flight (common::SingleFlight): the migrator
/// executes per-table programs concurrently against one cache, and the
/// first lookup of an extractor evaluates it while concurrent lookups of
/// the same extractor wait for that result. Every extractor is therefore
/// evaluated once, and `exec/column_cache/hits` is the number of lookups
/// minus the number of distinct extractors, whatever the scheduling.
class ColumnCache {
 public:
  explicit ColumnCache(const hdt::Hdt& tree) : tree_(&tree) {}

  /// `dsl::EvalColumn(tree(), pi)`, evaluated once per distinct
  /// extractor string.
  std::shared_ptr<const std::vector<hdt::NodeId>> Column(
      const dsl::ColumnExtractor& pi);

  const hdt::Hdt& tree() const { return *tree_; }
  /// Number of distinct extractors looked up.
  size_t size() const { return columns_.size(); }
  /// Number of lookups that found their extractor already asked for.
  size_t hits() const { return hits_.load(std::memory_order_relaxed); }

 private:
  const hdt::Hdt* tree_;
  common::SingleFlight<std::vector<hdt::NodeId>> columns_;
  std::atomic<size_t> hits_{0};
};

/// The executor's output: node tuples of one arity, flat and row-major.
/// Row r is `ids[r * arity, (r + 1) * arity)`: every row shares one
/// buffer.
struct NodeTable {
  size_t arity = 0;
  std::vector<hdt::NodeId> ids;

  size_t size() const { return arity == 0 ? 0 : ids.size() / arity; }
  bool empty() const { return ids.empty(); }
  std::span<const hdt::NodeId> operator[](size_t r) const {
    return {ids.data() + r * arity, arity};
  }
  /// The rows as separate tuples, for comparison with the Fig.-7 and
  /// reference evaluators, which return `std::vector<dsl::NodeTuple>`.
  std::vector<dsl::NodeTuple> ToTuples() const;

  bool operator==(const NodeTable&) const = default;
};

struct ExecuteOptions {
  /// Safety cap on the rows one DNF clause emits (after dropping rows an
  /// earlier clause emitted).
  uint64_t max_output_rows = 100'000'000;
  /// Optional resource governor: each chunk charges its emitted rows at
  /// `exec/emit`, 256 after every 256 rows and the remainder when it
  /// ends, so the charge is the exact row count at every pool size and a
  /// runaway enumeration stops within 256 rows per chunk. The scan loops
  /// poll for cancellation/deadline every few thousand iterations
  /// (bounded-latency checks, including on clauses that emit nothing).
  common::Governor* governor = nullptr;
  /// Optional cross-program column cache (see ColumnCache); it must have
  /// been built for the executed tree. nullptr = a call-local cache.
  ColumnCache* column_cache = nullptr;
  /// Optional worker pool (not owned). Each clause's outermost loop level
  /// is split into contiguous candidate ranges (chunks), enumerated on
  /// the pool and concatenated in range order, so the emitted tuple
  /// sequence is the same at every pool size. Without a pool, or with a
  /// one-thread pool, the clause is one chunk.
  common::ThreadPool* pool = nullptr;
};

/// A compiled execution plan for one program. Reusable across input trees.
class OptimizedExecutor {
 public:
  explicit OptimizedExecutor(const dsl::Program& program);

  /// Runs the plan, returning the surviving node tuples in one flat
  /// table: each clause's tuples in loop-nest order, a later clause's
  /// without those an earlier clause emitted.
  Result<NodeTable> ExecuteNodes(const hdt::Hdt& tree,
                                 const ExecuteOptions& opts = {}) const;

  /// Runs the plan, returning the data-projected table: each tuple's
  /// leaf bytes appended straight into the table's arena.
  Result<hdt::Table> Execute(const hdt::Hdt& tree,
                             const ExecuteOptions& opts = {}) const;

  /// Human-readable plan description (per clause: filters, joins, checks)
  /// for debugging and the ablation benchmark.
  std::string DescribePlan() const;

 private:
  struct Driver {
    int literal_index = -1;   ///< index into the clause
    int probe_col = 0;        ///< already-bound column supplying the key
    bool probe_is_lhs = false;  ///< atom side bound before this level
  };
  struct LevelPlan {
    int column = 0;  ///< which program column this loop level binds
    std::vector<int> unary_literals;  ///< literals over this column only
    std::vector<int> check_literals;  ///< binary literals resolved here
    Driver driver;                    ///< hash-join driver (optional)
    bool has_driver = false;
  };
  struct ClausePlan {
    std::vector<dsl::Literal> literals;
    std::vector<LevelPlan> levels;
  };

  /// Plans one clause. Loop levels follow a join-graph order: each next
  /// column is preferably connected to an already-bound column by a
  /// positive equality literal, so its candidates come from a hash probe
  /// instead of a full scan — without this, a program whose equalities
  /// all involve the last column would enumerate the full cross product
  /// of the earlier ones.
  void PlanClause(const std::vector<dsl::Literal>& clause);

  dsl::Program program_;
  std::vector<ClausePlan> clauses_;
};

/// One-shot convenience wrapper.
Result<hdt::Table> ExecuteOptimized(const hdt::Hdt& tree,
                                    const dsl::Program& program,
                                    const ExecuteOptions& opts = {});

}  // namespace mitra::core

#endif  // MITRA_CORE_EXECUTOR_H_
