#ifndef MITRA_DB_MIGRATOR_H_
#define MITRA_DB_MIGRATOR_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/status.h"
#include "core/executor.h"
#include "core/synthesizer.h"
#include "db/schema.h"
#include "dsl/ast.h"
#include "hdt/hdt.h"

/// \file migrator.h
/// Full-database migration (paper §6, "Handling full-fledged databases"):
/// invokes the synthesizer once per target table, then post-processes to
/// satisfy primary- and foreign-key constraints:
///
///  - a row built from tree nodes n1..nk gets primary key f(n1..nk),
///    where f is injective (here: the document index and the node ids
///    joined with '-'), so PK uniqueness holds by construction;
///  - a foreign key referencing table T' is generated by learning, for
///    every component j of T''s node tuple, a (source column, node
///    extractor) pair (t_j, χ_j) with χ_j(n_{t_j}) = n'_j on all example
///    rows, and emitting f(χ_1(..), .., χ_m(..)) — the same f — so
///    referential integrity holds whenever the learned extractors are
///    correct (Theorem-style guarantee of §6).

namespace mitra::db {

/// The injective key function f over a row's node tuple: the document
/// index and each node id in decimal, joined with '-' ("0-12-40").
std::string KeyOf(int doc_index, std::span<const hdt::NodeId> nodes);

/// The longest key over `n` nodes: an int32 prints in at most 11
/// characters, and each node adds a '-'.
constexpr size_t MaxKeySize(size_t n) { return 11 + 12 * n; }

/// Writes KeyOf's bytes at `p`, which has room for MaxKeySize(nodes.size())
/// bytes, and returns their end; Migrator::BuildTable formats keys
/// straight into a table's arena this way.
char* WriteKey(char* p, int doc_index, std::span<const hdt::NodeId> nodes);

/// One learned foreign-key generator: for each component of the
/// referenced table's node tuple, which source column to start from and
/// which node extractor to apply.
struct ForeignKeyPlan {
  std::vector<int> source_cols;
  std::vector<dsl::NodeExtractor> extractors;
};

/// Per-table learning statistics surfaced to the Table 2 harness.
struct TableSynthesisInfo {
  std::string table;
  /// Wall time of the table's synthesis (or of its cache lookup and
  /// re-verification). The learning paths synthesize several tables at
  /// once when num_threads > 1, so this is wall time under contention,
  /// not the table's time alone.
  double synthesis_seconds = 0.0;
  dsl::Program program;
};

/// Content-addressed program cache consulted by the learning paths (ISSUE
/// 8). Keys are opaque strings produced by ProgramCacheKey() and values
/// are synthesized programs; a Lookup hit bypasses synthesis entirely once
/// the migrator has re-verified the program against the example (so a
/// poisoned entry can never emit wrong tables — it falls back to fresh
/// synthesis and is overwritten). The on-disk implementation lives in
/// pipeline/program_cache.h; this interface keeps db/ free of that
/// dependency.
class ProgramCache {
 public:
  virtual ~ProgramCache() = default;
  /// Returns the program stored for `key`, or nullopt on miss *or* on any
  /// integrity failure (corrupt entries must read as misses, not errors).
  virtual std::optional<dsl::Program> Lookup(const std::string& key) = 0;
  /// Stores (or overwrites) the program for `key`.
  virtual Status Store(const std::string& key,
                       const dsl::Program& program) = 0;
};

/// The cache key for one (example tree, example table) synthesis task:
/// a content hash over the tree's structure+data, the expected table, and
/// dsl::kDslVersion (the printed program is the cache's value format, so a
/// printer/parser change must invalidate every entry). Hex-encoded 128
/// bits; collisions are not a correctness hazard because hits are
/// re-verified against the example before installation.
std::string ProgramCacheKey(const hdt::Hdt& tree, const hdt::Table& example);

struct MigratorOptions {
  core::SynthesisOptions synthesis;
  /// Node-extractor search depth for foreign-key learning.
  int fk_max_depth = 4;
  /// Execution options for Execute and ExecuteTolerant. When `pool` is set
  /// the tables of a document run on it concurrently (and each table's
  /// executor chunks its scans over it). The Migrator reads neither
  /// `execute.governor` nor `execute.column_cache`: each table runs under
  /// its own governor, from `table_limits`, and a document's tables share
  /// one column cache that the Migrator builds for that document.
  core::ExecuteOptions execute;
  /// Per-table resource budgets for every entry point (Learn,
  /// LearnTolerant, Execute, ExecuteTolerant): each table gets a *fresh*
  /// Governor per ladder rung, per foreign-key search and per execution,
  /// so one runaway or poisoned table exhausts its own budget without
  /// starving the others. When no deadline is set here, the synthesis time
  /// limit is each rung's deadline. The default limits are unlimited. The
  /// Migrator reads no `synthesis.limits` and sets `synthesis.governor`
  /// itself.
  common::ResourceLimits table_limits;
  /// Optional program cache (not owned; must outlive the call). When set,
  /// Learn/LearnTolerant consult it before synthesizing each table and
  /// store every *full-budget* (rung 0) result after synthesizing. Rung
  /// 1/2 programs are budget-shaped and never stored — a degraded entry
  /// must not shadow the full-budget program a later, better-budgeted run
  /// would find.
  ProgramCache* program_cache = nullptr;
};

/// Outcome of migrating one table under the degradation ladder.
enum class TableOutcome {
  kOk,        ///< learned and executed at full budgets
  kDegraded,  ///< succeeded only under reduced budgets (ladder rung 1)
  kFallback,  ///< projection-only program (rung 2): no predicate, the
              ///< emitted rows are a superset of the precise table
  kFailed,    ///< every rung failed, or execution failed; nothing emitted
  kSkipped,   ///< not attempted: a referenced table is unavailable
};
const char* TableOutcomeName(TableOutcome outcome);

/// Per-table migration record: what happened, on which ladder rung, at
/// what cost, and — for failures — the full retry trail.
struct TableReport {
  std::string table;
  TableOutcome outcome = TableOutcome::kSkipped;
  /// OK unless kFailed/kSkipped; then the decisive error.
  Status status;
  /// Ladder rung that produced the accepted program (0 = full budgets,
  /// 1 = reduced, 2 = projection-only fallback); -1 when none did.
  int rung = -1;
  /// One entry per failed attempt ("rung 0: …", "fk: …", "execute: …").
  std::vector<std::string> retry_trail;
  /// True when the program came from MigratorOptions::program_cache
  /// (verified against the example, no synthesis run).
  bool cache_hit = false;
  double learn_seconds = 0.0;
  double execute_seconds = 0.0;
  std::uint64_t rows_emitted = 0;
  /// Governor accounting accumulated across this table's rungs and
  /// execution.
  common::BudgetUsage usage;
};

/// True when `report` names a table that still yields output: neither
/// kFailed nor kSkipped. A null report (no such table) is not live.
bool TableIsLive(const TableReport* report);

/// Structured result of a tolerant migration (ISSUE 4): per-table status,
/// timings, budget consumption, and retry trail.
struct MigrationReport {
  std::vector<TableReport> tables;
  /// Flat `layer/phase/name` work counters covering the whole migration
  /// (learn + execute), as a registry delta. Filled by callers that want
  /// them in ToJson() (mitra_cli migrate does); empty otherwise.
  std::map<std::string, std::uint64_t> metrics;

  /// Every table migrated at full budgets.
  bool complete() const;
  /// Number of tables that produced no output (kFailed + kSkipped).
  size_t num_failed() const;
  TableReport* Find(const std::string& table);
  const TableReport* Find(const std::string& table) const;
  /// Machine-readable dump (mitra_cli --report=json).
  std::string ToJson() const;
};

/// A migration's learned state: everything execution needs, and nothing
/// only learning reads. The Migrator holds one, and a process-isolated
/// batch worker receives one whole in its init frame (pipeline/worker.h),
/// so both run the same programs and foreign-key plans.
///
/// A table is live iff it has a program: learning installs no program for
/// a table that fails, and erases the program (and any plans) of a table
/// its foreign-key cascade skips or fails.
struct LearnedMigration {
  DatabaseSchema schema;
  /// Each live table's program; its arity is the table's data columns.
  std::map<std::string, dsl::Program> programs;
  /// fk_plans[table][column index] for each kForeignKey column of a live
  /// table.
  std::map<std::string, std::map<size_t, ForeignKeyPlan>> fk_plans;

  /// Checks what execution relies on without checking: a valid schema;
  /// programs only for schema tables, each with the table's data-column
  /// arity; plans only for live tables' foreign-key columns, every such
  /// column with one; each plan as long as its referenced table's arity,
  /// that table live, and every source column a data column of the
  /// plan's own table.
  Status Validate() const;
};

/// Learns and executes a whole-database migration. Documents are read
/// only: a tree is indexed when it is built, so every table's execution
/// and foreign-key learning share that one index.
class Migrator {
 public:
  explicit Migrator(DatabaseSchema schema)
      : Migrator(LearnedMigration{std::move(schema), {}, {}}) {}
  /// A migrator that only executes `learned`, which must pass
  /// LearnedMigration::Validate (execution does not check again).
  explicit Migrator(LearnedMigration learned) : learned_(std::move(learned)) {}

  /// Learns one program per table from a single database example: a
  /// document plus, per table, the expected *data columns* (key columns
  /// are generated, so they do not appear in examples). All tables must
  /// be present. Each table gets the full-budget rung only, and the call
  /// fails fast: the error is the first failing table's in schema order (a
  /// malformed example counts where it stands), so every thread count
  /// learns the same migration or returns the same error.
  ///
  /// Learn and LearnTolerant share one implementation. Tables the program cache
  /// misses are learned up to `opts.synthesis.num_threads` at a time;
  /// the example checks, cache lookups and stores, info() and foreign-key
  /// learning stay on the calling thread in schema order.
  Status Learn(const hdt::Hdt& example_tree,
               const std::map<std::string, hdt::Table>& table_examples,
               const MigratorOptions& opts = {});

  /// Migrates one document, producing all tables with generated keys.
  /// `doc_index` disambiguates keys across multi-document datasets. Every
  /// table must have a program. Execute and ExecuteTolerant share one
  /// implementation: each table runs under a fresh
  /// Governor(opts.table_limits), on `opts.execute.pool` when one is
  /// given, and all of them share one column cache. Execute fails fast:
  /// after the first failure unclaimed tables are skipped, and the error
  /// is the first failing table's in schema order ("execution failed for
  /// table T: …"), so every thread count returns the same error.
  Result<Database> Execute(const hdt::Hdt& doc, int doc_index = 0,
                           const MigratorOptions& opts = {}) const;

  /// Fault-tolerant Learn with per-table isolation and a degradation
  /// ladder: full budgets → reduced caps → projection-only fallback →
  /// failed. Structural errors (invalid schema, missing/mis-shaped
  /// example) still fail the whole call; per-table failures are recorded
  /// in the report and do not prevent other tables from being learned.
  /// A table whose foreign key references a failed table is kSkipped.
  Result<MigrationReport> LearnTolerant(
      const hdt::Hdt& example_tree,
      const std::map<std::string, hdt::Table>& table_examples,
      const MigratorOptions& opts = {});

  /// Fault-tolerant Execute of one document: every table with a program
  /// runs, as in Execute, and a failing table is marked kFailed in
  /// `report` (with its cause and an "execute: …" trail entry) while the
  /// remaining tables are still emitted, bit-identical to a run without
  /// the failing table. Tables run concurrently when `opts.execute.pool`
  /// is set, so `execute_seconds` is then wall time under contention.
  /// `doc_index` is Execute's. `report` entries are matched by table name
  /// and created when missing (e.g. after a strict Learn); execution,
  /// rows and usage accumulate into them, and a failure recorded by an
  /// earlier call stays recorded. The report never decides what runs.
  /// Pass nullptr to discard the per-table records.
  Database ExecuteTolerant(const hdt::Hdt& doc, int doc_index,
                           MigrationReport* report,
                           const MigratorOptions& opts = {}) const;

  /// The learned state: schema, live tables' programs, foreign-key plans.
  const LearnedMigration& learned() const { return learned_; }
  const std::vector<TableSynthesisInfo>& info() const { return info_; }
  /// fk_plans()[table][column index] for kForeignKey columns.
  const std::map<std::string, std::map<size_t, ForeignKeyPlan>>& fk_plans()
      const {
    return learned_.fk_plans;
  }
  const DatabaseSchema& schema() const { return learned_.schema; }

 private:
  /// A learned program with its example node tuples and the seconds it
  /// took to learn (or to look up and re-verify).
  struct LearnedTable {
    dsl::Program program;
    std::vector<dsl::NodeTuple> tuples;
    double seconds = 0.0;
  };
  /// Records `learned` as `table`'s program, example tuples and info.
  void Install(const std::string& table, LearnedTable learned);
  /// Consults opts.program_cache for (tree, example) and returns the
  /// verified hit. A corrupt, mismatched, or unverifiable entry reads as a
  /// miss (`why` records the reason for the retry trail).
  std::optional<LearnedTable> LookupCachedProgram(const TableDef& t,
                                                  const hdt::Hdt& tree,
                                                  const hdt::Table& example,
                                                  const MigratorOptions& opts,
                                                  Status* why) const;
  Status LearnForeignKeysForTable(const TableDef& t, const hdt::Hdt& tree,
                                  const MigratorOptions& opts,
                                  common::Governor* gov);
  struct TableAttempt;
  /// The one learning routine behind Learn (num_rungs = 1, fail fast) and
  /// LearnTolerant (every rung, failures recorded in the report).
  Result<MigrationReport> LearnTables(
      const hdt::Hdt& tree,
      const std::map<std::string, hdt::Table>& table_examples,
      const MigratorOptions& opts, int num_rungs);
  /// Walks rungs [0, num_rungs) of the degradation ladder for one table
  /// until one learns it. Writes only `*out`, so tables can run
  /// concurrently.
  void RunLadder(const TableDef& t, const hdt::Hdt& tree,
                 const hdt::Table& example, const MigratorOptions& opts,
                 int num_rungs, TableAttempt* out) const;
  /// Executes one table's program on one document, materializing keys.
  Result<hdt::Table> BuildTable(const TableDef& t, const hdt::Hdt& doc,
                                int doc_index,
                                const core::ExecuteOptions& exec_opts) const;
  struct TableExecution;
  /// The one execution routine behind Execute (fail fast: the first
  /// failure in schema order is returned and unclaimed tables are skipped)
  /// and ExecuteTolerant (every table with a program runs). Writes only
  /// `(*runs)[i]` per schema table i, so tables can run concurrently; the
  /// caller applies them in schema order.
  Status ExecuteTables(const hdt::Hdt& doc, int doc_index,
                       const MigratorOptions& opts, bool fail_fast,
                       std::vector<TableExecution>* runs) const;

  LearnedMigration learned_;
  /// Example node tuples per table (kept between Learn phases).
  std::map<std::string, std::vector<dsl::NodeTuple>> example_tuples_;
  std::vector<TableSynthesisInfo> info_;
};

}  // namespace mitra::db

#endif  // MITRA_DB_MIGRATOR_H_
