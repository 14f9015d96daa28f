#ifndef MITRA_PIPELINE_WORKER_H_
#define MITRA_PIPELINE_WORKER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "db/migrator.h"
#include "hdt/hdt.h"

/// \file worker.h
/// The batch worker protocol (ISSUE 10): what a sandboxed `mitra
/// batch-worker` subprocess speaks with its supervisor, plus the shared
/// per-document execution routine both isolation modes run.
///
/// Protocol (frames per common/subprocess.h, payload integers u64 LE,
/// strings length-prefixed; every payload has one encoder and one decoder
/// below, and decoders reject truncated or out-of-range input):
///
///   supervisor -> worker
///     'I' init    magic + DSL version + outdir + retry options + table
///                 budgets + the whole db::LearnedMigration: the schema
///                 (names, column kinds, references), each live table's
///                 program and its foreign-key plans, programs and node
///                 extractors in the DSL's printed syntax. Everything
///                 needed to execute without re-learning (workers must
///                 not re-synthesize: ladder budgets are wall-clock
///                 sensitive and could degrade differently per worker,
///                 breaking output determinism).
///     'A' assign  {fleet index, document path}
///
///   worker -> supervisor
///     'Y' ready      init decoded and validated, migrator built
///     'H' heartbeat  {phase string}; sent from the governor fault-probe
///                    hook (throttled) and at phase transitions
///     'R' result     {fleet index, status, rows, shard CRC, attempts,
///                    retry trail, peak RSS kB, seconds}
///
/// The worker writes document shards itself (same WriteFileAtomic paths
/// as the in-process run); the supervisor remains the sole journal
/// writer. EOF on stdin is the shutdown signal.

namespace mitra::pipeline {

// Frame type tags.
inline constexpr char kFrameInit = 'I';
inline constexpr char kFrameAssign = 'A';
inline constexpr char kFrameReady = 'Y';
inline constexpr char kFrameHeartbeat = 'H';
inline constexpr char kFrameResult = 'R';

/// Wire-format version, checked by the worker before anything else: a
/// supervisor and worker from different builds must fail loudly, not
/// misexecute.
inline constexpr std::string_view kWorkerIpcMagic = "mitra-worker-ipc-3";

/// Everything a worker needs to execute documents.
struct WorkerInit {
  std::string outdir;
  common::ResourceLimits table_limits;
  /// Retry options minus the non-serializable sleep hook (workers always
  /// really sleep; deterministic-schedule tests run in-process).
  common::RetryOptions retry;
  /// Probe-driven heartbeat cadence (seconds between 'H' frames).
  double heartbeat_interval_seconds = 0.25;
  /// What the supervisor learned; the worker executes it as is.
  db::LearnedMigration migration;
};

std::string EncodeWorkerInit(const WorkerInit& init);
/// Also runs db::LearnedMigration::Validate, so a decoded migration is
/// safe to execute.
Result<WorkerInit> DecodeWorkerInit(std::string_view payload);

/// The 'A' frame body.
struct WorkerAssign {
  std::uint64_t doc_index = 0;
  std::string path;
};

std::string EncodeWorkerAssign(const WorkerAssign& assign);
Result<WorkerAssign> DecodeWorkerAssign(std::string_view payload);

/// The 'H' frame body is the phase string. A malformed heartbeat still
/// counts as one, with an empty phase.
std::string EncodeHeartbeat(std::string_view phase);
std::string DecodeHeartbeat(std::string_view payload);

/// Diagnostics for one worker death while (or before) holding a document
/// — the `hard_fault` block of the quarantine report.
struct HardFaultInfo {
  /// "signal" | "timeout" | "heartbeat" | "rlimit_cpu" | "exit" |
  /// "protocol" | "spawn".
  std::string kind;
  int signal = 0;         ///< terminating signal (0 = exited)
  int exit_code = -1;     ///< exit status when kind == "exit"
  std::string last_phase; ///< last heartbeat phase ("" = none seen)
  double seconds_since_heartbeat = 0.0;
  /// Worker rusage at reap time.
  std::uint64_t max_rss_kb = 0;
  double user_seconds = 0.0;
  double system_seconds = 0.0;
  /// True when this fault consumed the document's one fresh-worker retry
  /// (false on the final, quarantining fault).
  bool retried = false;
};

/// One document's outcome. ExecuteFleetDocument fills the first six
/// fields in either isolation mode; the supervisor adds the worker's peak
/// RSS and any hard faults.
struct FleetDocOutcome {
  Status status;  ///< OK = migrated; else the quarantining error
  std::uint64_t rows = 0;
  std::uint32_t shard_crc = 0;
  int attempts = 0;
  std::vector<std::string> trail;
  double seconds = 0.0;
  /// Peak RSS of the worker that (last) ran the document, in kB — from
  /// the worker's own getrusage on success, from the reap rusage on a
  /// hard fault.
  std::uint64_t peak_rss_kb = 0;
  /// Worker deaths attributed to this document, oldest first; at most
  /// one has retried=false. Empty for documents that never hard-faulted.
  std::vector<HardFaultInfo> hard_faults;
};

/// The 'R' frame body: a document's outcome, its `hard_faults` not sent
/// (hard faults are the supervisor's to record).
struct WorkerResult {
  std::uint64_t doc_index = 0;
  FleetDocOutcome outcome;
};

std::string EncodeWorkerResult(const WorkerResult& result);
/// Rejects a status code outside StatusCode: the worker is the untrusted
/// side, and the supervisor treats a rejected frame as a protocol
/// violation.
Result<WorkerResult> DecodeWorkerResult(std::string_view payload);

/// Where document `index`'s shard for `table` lives.
std::string ShardPath(const std::string& outdir, const std::string& table,
                      size_t index);

/// Parses a fleet document: `.json` paths as JSON, everything else XML.
Result<hdt::Hdt> ParseFleetDoc(const std::string& path,
                               std::string_view text);

/// Shared execution state for one fleet, built once per process (by
/// RunBatch in-process, by WorkerMain from the init frame).
struct FleetExecContext {
  /// Executes every table that has a program (the live ones).
  const db::Migrator* migrator = nullptr;
  db::MigratorOptions migrator_options;
  std::string outdir;
  common::RetryOptions retry;
  /// Optional phase announcer ("doc/read", "doc/parse", "doc/execute",
  /// "doc/write") — the worker forwards these as heartbeats.
  std::function<void(const char*)> phase;
};

/// Executes one document end to end — read, parse, ExecuteTolerant with
/// the fleet index as doc_index, all-or-nothing check (the first failed
/// table's status in schema order fails the document), atomic shard
/// writes for the live tables in schema order — under the per-document
/// retry policy (seed mixed with the index, so schedules are
/// deterministic at any worker count).
/// This is THE per-document routine: both isolation modes call it, which
/// is what makes `--isolation=process` byte-identical to in-process.
FleetDocOutcome ExecuteFleetDocument(const FleetExecContext& ctx,
                                     size_t index, const std::string& path);

struct WorkerMainOptions {
  int in_fd = 0;
  int out_fd = 1;
  /// Test hook, called with the document path before each execution
  /// (testing::MaybeTriggerHardFault in the real CLI).
  std::function<void(const std::string&)> pre_doc_hook;
};

/// Entry point for the hidden `mitra batch-worker` mode: speaks the
/// protocol above until EOF on stdin. Returns the process exit code
/// (0 = clean shutdown, 1 = IPC failure, 2 = bad init).
int WorkerMain(const WorkerMainOptions& opts);

}  // namespace mitra::pipeline

#endif  // MITRA_PIPELINE_WORKER_H_
