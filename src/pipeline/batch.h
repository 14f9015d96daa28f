#ifndef MITRA_PIPELINE_BATCH_H_
#define MITRA_PIPELINE_BATCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "db/migrator.h"
#include "pipeline/worker_pool.h"

/// \file batch.h
/// Multi-document migration pipeline (ISSUE 8): learn the table programs
/// once from a shared example (consulting a persistent program cache), fan
/// the document fleet out across a thread pool, and merge per-document
/// shards into final tables *bit-identically* to a sequential per-document
/// run.
///
/// Determinism contract: common::WriteCsv emits each row independently
/// with a trailing '\n', so concatenating the per-document shard files in
/// fleet order is byte-equal to WriteCsv over the sequentially merged
/// rows — regardless of thread count or completion order. Each document
/// executes with its fleet index as the `doc_index` its generated keys
/// embed, so the keys are those of one sequential run over the fleet.
///
/// Resumability & crash consistency (ISSUE 9): every output — shard
/// files, merged CSVs, migration.sql, the journal itself — goes through
/// FileSystem::WriteFileAtomic, so a crash at any point leaves each file
/// either absent/previous or complete, never torn. The journal (format
/// v2) records a CRC-32 over each completed document's shard bytes; a
/// restart validates the journal against the batch key (example + schema
/// + fleet + DSL version) and re-reads completed documents' shards,
/// demoting any CRC mismatch back to execution instead of trusting a
/// torn-but-parseable shard. A journal in any other format (v1 included)
/// reads as stale: every document re-executes.
///
/// Self-healing: per-document work (read, parse, execute, shard write)
/// runs under a common::RetryPolicy — transient faults
/// (StatusCode::kUnavailable) are retried with seeded-jitter exponential
/// backoff before the document is demoted. Documents that fail
/// permanently or exhaust retries are QUARANTINED: recorded in the
/// journal (so a fleet re-run never re-burns budget on a poison
/// document unless retry_quarantined is set), reported under
/// `<quarantine_dir>/doc.<index>.json` with the failing Status and retry
/// trail, and excluded from the merged output without failing the batch.

namespace mitra::pipeline {

/// How fleet documents are executed (ISSUE 10).
enum class IsolationMode {
  /// In this process, fanned out over BatchOptions::pool (the default).
  kNone,
  /// In a supervised pool of sandboxed `mitra batch-worker` subprocesses
  /// (see worker_pool.h): rlimits at spawn, heartbeat watchdog, SIGKILL
  /// for violators, fresh-worker retry, hard-fault quarantine. Byte-
  /// identical output to kNone — both modes run ExecuteFleetDocument
  /// with the same shipped programs and per-document retry seeds.
  kProcess,
};

/// A parsed batch manifest: one shared example, the target tables, and
/// the document fleet in migration order.
struct BatchManifest {
  /// Path to the example document (.xml or .json).
  std::string example_doc;
  /// (table name, example CSV path) in schema order.
  std::vector<std::pair<std::string, std::string>> tables;
  /// Fleet document paths, in fleet order (index = key prefix).
  std::vector<std::string> documents;
};

/// Parses a manifest file. JSON object with members:
///   "example":   path to the example document;
///   "tables":    object of table name -> example CSV path;
///   "documents": array of document paths, or a single glob pattern
///                (a string containing '*', expanded non-recursively
///                against the filesystem shim, matches sorted).
/// Relative paths are resolved against the manifest's directory.
Result<BatchManifest> ParseManifest(const std::string& path);
/// Same, from manifest text plus an explicit base directory ("" = cwd).
Result<BatchManifest> ParseManifestText(std::string_view text,
                                        const std::string& base_dir);

struct BatchOptions {
  /// Synthesis/execution budgets; `program_cache` here is set by RunBatch
  /// from `cache` below.
  db::MigratorOptions migrator;
  /// Fan-out pool; null = sequential in fleet order.
  common::ThreadPool* pool = nullptr;
  /// Program cache; null = always synthesize fresh.
  db::ProgramCache* cache = nullptr;
  /// Output directory: final tables at `<outdir>/<table>.csv`, shards at
  /// `<outdir>/shards/<table>.<index>.csv`.
  std::string outdir = ".";
  /// Journal file for resumable checkpoints ("" = no checkpointing).
  std::string journal;
  /// Ignore (and overwrite) an existing journal: start from scratch.
  bool fresh = false;
  /// Also emit `<outdir>/<table>.sql` (CREATE TABLE + INSERTs).
  bool write_sql = false;
  /// Transient-fault retry for per-document work and batch-level I/O.
  /// The document index is mixed into the seed, so schedules are
  /// deterministic per document at any thread count.
  common::RetryOptions retry;
  /// Where quarantined documents' reports go ("" = `<outdir>/quarantine`).
  std::string quarantine_dir;
  /// Re-execute documents the journal lists as quarantined instead of
  /// skipping them (a fleet operator's "the environment is fixed, try
  /// the poison docs again").
  bool retry_quarantined = false;
  /// Where fleet documents execute; kProcess supersedes `pool` (workers
  /// are the parallelism).
  IsolationMode isolation = IsolationMode::kNone;
  /// Sandbox/watchdog configuration when isolation == kProcess.
  WorkerPoolOptions worker_pool;
};

enum class DocOutcome {
  kDone,         ///< migrated in this run
  kResumed,      ///< found complete in the journal; shards re-read, not re-run
  kFailed,       ///< execution or shard write failed; nothing emitted for it
  kQuarantined,  ///< permanent fault or exhausted retries; journaled so a
                 ///< re-run skips it (see BatchOptions::retry_quarantined)
};
const char* DocOutcomeName(DocOutcome outcome);

struct DocReport {
  std::string path;
  int index = -1;
  DocOutcome outcome = DocOutcome::kFailed;
  Status status;
  double seconds = 0.0;
  std::uint64_t rows_emitted = 0;
  /// Attempts actually made (1 = first try succeeded; 0 = not executed
  /// this run, i.e. resumed or journal-quarantined).
  int attempts = 0;
  /// One line per failed attempt, from common::RetryResult::trail; also
  /// written into the quarantine report.
  std::vector<std::string> retry_trail;
  /// Peak RSS of the worker process that executed this document, in kB
  /// (kProcess only). 0, and left out of ToJson(), when no worker ran it:
  /// in-process (kNone) documents share one process, so no per-document
  /// figure exists, and resumed documents did not execute this run.
  std::uint64_t peak_rss_kb = 0;
  /// Worker deaths attributed to this document (kProcess only), oldest
  /// first; the last entry is the quarantining fault when outcome is
  /// kQuarantined via hard fault.
  std::vector<HardFaultInfo> hard_faults;
};

/// Structured result of one batch run (mitra batch --report=json).
struct BatchReport {
  /// Per-table learning outcome, including TableReport::cache_hit.
  db::MigrationReport learn;
  /// Per-document outcome, in fleet order.
  std::vector<DocReport> docs;
  /// The batch key the journal is validated against.
  std::string batch_key;
  /// Registry delta covering the whole run (filled by the CLI).
  std::map<std::string, std::uint64_t> metrics;
  /// Last journal-write failure, if any (OK otherwise). Journal writes
  /// are retried then tolerated — losing one costs only re-execution on
  /// resume — but the failure is surfaced here and counted under
  /// `pipeline/journal/write_failed`.
  Status journal_status;

  size_t docs_done() const;
  size_t docs_resumed() const;
  size_t docs_failed() const;
  size_t docs_quarantined() const;
  /// Every table learned at full budget and every document migrated
  /// (nothing failed, nothing quarantined).
  bool complete() const;
  std::string ToJson() const;
};

/// The key identifying one batch for journal validation: a content hash
/// over the example document, the schema (table names + example CSVs),
/// the fleet paths in order, and dsl::kDslVersion. A changed manifest or
/// DSL version invalidates the journal (full re-run), never corrupts it.
std::string BatchKey(const std::string& example_text,
                     const std::vector<std::pair<std::string, std::string>>&
                         table_texts,
                     const std::vector<std::string>& doc_paths);

/// Runs the full pipeline: load + learn (cache-aware) + fan-out + merge.
/// Per-document failures are tolerated (recorded in the report, other
/// documents and tables still emitted); a Status is returned only for
/// whole-batch failures (unreadable manifest inputs, no learnable table,
/// unwritable final outputs).
Result<BatchReport> RunBatch(const BatchManifest& manifest,
                             const BatchOptions& opts);

}  // namespace mitra::pipeline

#endif  // MITRA_PIPELINE_BATCH_H_
